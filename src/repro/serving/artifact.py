"""Portable model artifacts: weights + preprocessing + formulation state.

A :class:`ModelArtifact` is the unit of deployment for this library.  It
bundles everything a fresh process needs to reproduce a trained pipeline's
predictions — the model ``state_dict``, the *fitted* preprocessing
statistics (train/serve parity), the graph-construction config, and the
**formulation payload**: whatever frozen state the fitted formulation
needs at serve time (the retrieval pool for instance graphs, value-node
vocabularies with their UNK buckets for multiplex/hetero, the incidence
structure plus the frozen row→value-node encoder for hypergraph, nothing
for the row-wise feature formulation).  The artifact itself is
formulation-agnostic: it round-trips the payload as opaque namespaced
arrays plus a JSON block and delegates model building and scoring to the
rehydrated :class:`~repro.formulations.FittedFormulation`.

Persistence is deliberately dependency-free: one ``.npz`` holding every
array, plus a human-readable ``.json`` sidecar holding the config.  Array
names are namespaced (``param::``, ``prep::``, ``form::``) so the flat npz
container round-trips the nested structure losslessly.  The sidecar
carries a ``schema_version``; the loader rejects unknown versions and
accepts legacy (pre-versioned, ``pool::``-array) sidecars by upgrading
them to the instance/feature payload layout they implied.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import uuid
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro import __version__, nn
from repro.datasets.preprocessing import TabularPreprocessor
from repro.graph.homogeneous import Graph

_PARAM = "param::"
_PREP = "prep::"
_POOL = "pool::"  # legacy (schema v1) instance-pool arrays
_FORM = "form::"

#: Current artifact schema.  v1 (legacy) sidecars carried no
#: ``schema_version`` key and stored the instance pool under ``pool::``
#: arrays; v2 stores an opaque per-formulation payload under ``form::``.
ARTIFACT_SCHEMA_VERSION = 2


class _SkipInitGenerator:
    """Generator stand-in that skips random weight initialization.

    :meth:`ModelArtifact.build_model` instantiates the architecture only to
    immediately overwrite every parameter via ``load_state_dict`` (which is
    strict about missing/unexpected names, so nothing survives the
    overwrite).  Drawing Glorot samples for weights that are about to be
    discarded is pure waste on the serving path; this stub returns zeros
    with the right shapes instead.  Only the two Generator methods the
    initializers in :mod:`repro.tensor.init` use are provided.
    """

    @staticmethod
    def uniform(low=0.0, high=1.0, size=None):
        return np.zeros(() if size is None else size)

    @staticmethod
    def normal(loc=0.0, scale=1.0, size=None):
        return np.zeros(() if size is None else size)


def _file_sha256(path: pathlib.Path, chunk_bytes: int = 1 << 20) -> str:
    """Chunked SHA-256 of a file — the artifact's content identity.

    Surfaced as ``artifact_sha`` on ``/healthz`` so operators can tell
    *which* model bytes a deployment (or each worker generation after a
    hot-swap) is actually serving.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def _write_atomically(path: pathlib.Path, write: Callable) -> None:
    """Write ``path`` through a temp file in its directory, then rename it
    into place: a reader never sees a partial file, and a live memory map
    of the old file keeps its inode (and its bytes) instead of being
    overwritten underneath."""
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _paths(path: Union[str, pathlib.Path]) -> Tuple[pathlib.Path, pathlib.Path]:
    """Resolve ``(npz_path, json_sidecar_path)`` from a user-supplied path."""
    path = pathlib.Path(path)
    if path.suffix == ".json":
        path = path.with_suffix(".npz")
    elif path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path, path.with_suffix(".json")


@dataclasses.dataclass
class ModelArtifact:
    """A trained pipeline, frozen for inference.

    Parameters
    ----------
    formulation:
        Registered :mod:`repro.formulations` name.  Serving supports every
        formulation whose class declares ``servable = True``.
    network:
        Architecture-builder name, supplied by the fitted formulation
        (``repro.gnn.networks.NETWORKS`` key for instance graphs,
        ``"feature_graph"`` / ``"tabgnn"`` / ``"hetero_gnn"`` otherwise).
    config:
        JSON-safe hyperparameters (``hidden_dim``, ``out_dim``, ``k``,
        ``metric``, ``num_layers``, ``embed_dim``, ``task``).
    state_dict:
        Trained parameter arrays keyed by dotted module path.
    preprocessor:
        Fitted :class:`~repro.datasets.TabularPreprocessor` mapping raw rows
        into the model's feature space (and validating row shapes).
    pool_x / pool_edge_index:
        Instance-formulation convenience accessors for the frozen training
        pool.  Passing them at construction populates the payload; loading
        an instance artifact populates them back from it.
    payload_arrays / payload_meta:
        The formulation's opaque serve-time state
        (:meth:`~repro.formulations.FittedFormulation.artifact_payload`).
    metadata:
        Free-form JSON-safe provenance (application name, dataset summary…).
    """

    formulation: str
    network: str
    config: Dict[str, object]
    state_dict: Dict[str, np.ndarray]
    preprocessor: TabularPreprocessor
    pool_x: Optional[np.ndarray] = None
    pool_edge_index: Optional[np.ndarray] = None
    metadata: Dict[str, object] = dataclasses.field(default_factory=dict)
    payload_arrays: Dict[str, np.ndarray] = dataclasses.field(default_factory=dict)
    payload_meta: Dict[str, object] = dataclasses.field(default_factory=dict)
    schema_version: int = ARTIFACT_SCHEMA_VERSION
    #: Provenance, set by :meth:`save`/:meth:`load`: where the ``.npz``
    #: lives and its SHA-256 (the ``artifact_sha`` on ``/healthz``).
    source_path: Optional[pathlib.Path] = None
    content_sha: Optional[str] = None
    #: ``"r"`` when the arrays are read-only memmaps into the npz (scale-out
    #: workers then share one physical copy); ``None`` for eager loads.
    mmap_mode: Optional[str] = None

    def __post_init__(self) -> None:
        self._fitted = None
        if self.pool_x is not None and "x" not in self.payload_arrays:
            # Constructed the historical way (explicit pool arrays).
            if self.pool_edge_index is None:
                raise ValueError(
                    "instance artifacts need both pool arrays: pool_x was "
                    "given without pool_edge_index"
                )
            self.pool_x = np.asarray(self.pool_x, dtype=np.float64)
            self.pool_edge_index = self.pool_edge_index.astype(np.int64)
            self.payload_arrays = {
                "x": self.pool_x,
                "edge_index": self.pool_edge_index,
                **self.payload_arrays,
            }
            self.payload_meta.setdefault("pool_rows", int(self.pool_x.shape[0]))
        elif self.pool_x is None and self.formulation == "instance":
            self.pool_x = self.payload_arrays.get("x")
            self.pool_edge_index = self.payload_arrays.get("edge_index")

    # ------------------------------------------------------------------
    @classmethod
    def from_pipeline_state(cls, state) -> "ModelArtifact":
        """Export a :class:`repro.pipeline.PipelineState` (see its docs)."""
        fitted = state.fitted
        arrays, meta = fitted.artifact_payload()
        artifact = cls(
            formulation=fitted.name,
            network=fitted.model_builder,
            config=dict(fitted.config),
            state_dict=state.model.state_dict(),
            preprocessor=fitted.preprocessor,
            payload_arrays=arrays,
            payload_meta=meta,
            metadata={"library_version": __version__},
        )
        if artifact.pool_rows is not None:
            artifact.metadata["pool_rows"] = artifact.pool_rows
        # Reuse the already-fitted formulation (shares its memoized graph
        # operators) instead of rehydrating from the payload.
        artifact._fitted = fitted
        return artifact

    # ------------------------------------------------------------------
    @property
    def fitted(self):
        """The (lazily rehydrated) fitted formulation behind this artifact."""
        if self._fitted is None:
            from repro import formulations

            config = dict(self.config)
            # Pipeline-exported configs carry the builder name already;
            # hand-assembled artifacts record it only as `network`.
            config.setdefault("network", self.network)
            self._fitted = formulations.get(self.formulation).from_payload(
                self.payload_arrays,
                self.payload_meta,
                config,
                self.preprocessor,
            )
        return self._fitted

    @property
    def num_classes(self) -> int:
        return int(self.config["out_dim"])

    @property
    def pool_rows(self) -> Optional[int]:
        rows = self.payload_meta.get("pool_rows")
        return None if rows is None else int(rows)

    def pool_graph(self) -> Graph:
        if self.pool_x is None or self.pool_edge_index is None:
            raise ValueError(f"{self.formulation!r} artifact carries no pool graph")
        return Graph(self.pool_x.shape[0], self.pool_edge_index, x=self.pool_x)

    def build_model(
        self, graph: Optional[object] = None, skip_init: bool = True
    ) -> nn.Module:
        """Instantiate the architecture, load the weights, switch to eval.

        The fitted formulation names and builds the architecture; the
        artifact just supplies a no-op initializer and loads the trained
        weights.  ``graph`` optionally overrides the construction graph
        with whatever structure the formulation builds on — the instance
        oracle path passes an induced pool+queries :class:`Graph`, the
        hypergraph oracle an attached incidence copy.  ``skip_init``
        (the default) zero-fills the freshly
        constructed parameters instead of drawing random initial weights —
        they are overwritten by ``load_state_dict`` either way.
        """
        rng = _SkipInitGenerator() if skip_init else np.random.default_rng(0)
        model = self.fitted.build_model(rng, graph=graph)
        model.load_state_dict(self.state_dict)
        model.eval()
        return model

    # ------------------------------------------------------------------
    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write ``<path>.npz`` (arrays) + ``<path>.json`` (config sidecar).

        Each file is replaced atomically, so re-saving at a path a live
        ``mmap_mode="r"`` engine serves leaves that engine on the old bytes.
        """
        npz_path, json_path = _paths(path)
        arrays: Dict[str, np.ndarray] = {
            _PARAM + name: np.asarray(value, dtype=np.float64)
            for name, value in self.state_dict.items()
        }
        prep_arrays, prep_meta = self.preprocessor.state()
        arrays.update({_PREP + name: value for name, value in prep_arrays.items()})
        arrays.update(
            {_FORM + name: value for name, value in self.payload_arrays.items()}
        )
        _write_atomically(npz_path, lambda handle: np.savez(handle, **arrays))
        sidecar = {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "formulation": self.formulation,
            "network": self.network,
            "config": self.config,
            "preprocessor": prep_meta,
            "formulation_state": self.payload_meta,
            "metadata": self.metadata,
            "parameters": sorted(self.state_dict),
        }
        text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
        _write_atomically(json_path, lambda handle: handle.write(text.encode()))
        self.source_path = npz_path
        self.content_sha = _file_sha256(npz_path)
        return npz_path

    @classmethod
    def load(
        cls,
        path: Union[str, pathlib.Path],
        mmap_mode: Optional[str] = None,
    ) -> "ModelArtifact":
        """Reload an artifact saved by :meth:`save` (pass either file).

        Legacy sidecars (no ``schema_version``) are upgraded in memory:
        their ``pool::`` arrays become the instance payload.  Sidecars
        declaring a schema this library does not know are rejected.

        ``mmap_mode="r"`` memory-maps every array straight out of the
        (uncompressed) ``.npz`` instead of copying it into private heap
        memory (see :mod:`repro.serving.npz_mmap`).  The payload
        rehydrators pass arrays through without copying, so the frozen
        pool features / value-node states served by N scale-out worker
        processes occupy **one** physical copy in the page cache.  Model
        weights are still materialized per process (``load_state_dict``
        copies), which is what makes the mapped arrays safely read-only.
        """
        if mmap_mode not in (None, "r"):
            raise ValueError(
                f"mmap_mode={mmap_mode!r} unsupported; artifacts are frozen, "
                "only read-only mapping (\"r\") makes sense"
            )
        npz_path, json_path = _paths(path)
        if not npz_path.exists():
            raise FileNotFoundError(f"artifact arrays not found: {npz_path}")
        if not json_path.exists():
            raise FileNotFoundError(f"artifact sidecar not found: {json_path}")
        sidecar = json.loads(json_path.read_text())
        declared = sidecar.get("schema_version")
        if mmap_mode == "r":
            from repro.serving.npz_mmap import load_npz_mmap

            arrays = load_npz_mmap(npz_path)
        else:
            with np.load(npz_path) as data:
                arrays = {name: data[name] for name in data.files}
        if declared is not None and int(declared) not in (1, ARTIFACT_SCHEMA_VERSION):
            raise ValueError(
                f"unknown artifact schema v{declared}; this library supports "
                f"v{ARTIFACT_SCHEMA_VERSION} (and legacy v1 sidecars, with or "
                f"without an explicit schema_version)"
            )
        if declared is None or int(declared) == 1:
            legacy = int(sidecar.get("format_version", 0))
            if legacy > 1:
                raise ValueError(
                    f"artifact format v{legacy} is newer than this library "
                    f"(supports schema v{ARTIFACT_SCHEMA_VERSION} and legacy v1)"
                )
            schema_version = 1
            payload_arrays = {
                name[len(_POOL):]: arrays[name]
                for name in arrays
                if name.startswith(_POOL)
            }
            payload_meta = (
                {"pool_rows": int(payload_arrays["x"].shape[0])}
                if "x" in payload_arrays
                else {}
            )
        else:
            schema_version = ARTIFACT_SCHEMA_VERSION
            payload_arrays = {
                name[len(_FORM):]: arrays[name]
                for name in arrays
                if name.startswith(_FORM)
            }
            payload_meta = sidecar.get("formulation_state", {})
        state_dict = {
            name[len(_PARAM):]: arrays[name] for name in arrays if name.startswith(_PARAM)
        }
        expected = set(sidecar.get("parameters", state_dict))
        if set(state_dict) != expected:
            raise ValueError(
                "artifact npz/sidecar disagree on parameter names; "
                "the two files are from different saves"
            )
        prep_arrays = {
            name[len(_PREP):]: arrays[name] for name in arrays if name.startswith(_PREP)
        }
        preprocessor = TabularPreprocessor.from_state(
            prep_arrays, sidecar["preprocessor"]
        )
        return cls(
            formulation=sidecar["formulation"],
            network=sidecar["network"],
            config=sidecar["config"],
            state_dict=state_dict,
            preprocessor=preprocessor,
            payload_arrays=payload_arrays,
            payload_meta=payload_meta,
            metadata=sidecar.get("metadata", {}),
            schema_version=schema_version,
            source_path=npz_path,
            content_sha=_file_sha256(npz_path),
            mmap_mode=mmap_mode,
        )

    def summary(self) -> Dict[str, object]:
        info: Dict[str, object] = {
            "formulation": self.formulation,
            "network": self.network,
            "schema_version": self.schema_version,
            "classes": self.num_classes,
            "parameters": int(sum(p.size for p in self.state_dict.values())),
        }
        if self.pool_rows is not None:
            info["pool_rows"] = self.pool_rows
        if self.pool_edge_index is not None:
            info["pool_edges"] = int(self.pool_edge_index.shape[1])
        return info
