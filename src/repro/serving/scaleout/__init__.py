"""The scoring side of the prediction server, and its forked workers.

* :mod:`~repro.serving.scaleout.worker` — a serving unit (artifact,
  engine, registry) and :func:`~repro.serving.scaleout.worker.handle_frame`,
  the one function that answers a request: the server calls it in process
  for ``workers=0``, and :func:`~repro.serving.scaleout.worker.worker_main`
  runs it in each forked worker for ``workers=N``, against a
  **memory-mapped read-only** load of the artifact, so the workers share
  one physical copy of the pool state.
* :mod:`~repro.serving.scaleout.protocol` — the length-prefixed framing
  between the server's event loop and its forked workers.

The HTTP side, for both shapes, is :class:`repro.serving.PredictionServer`.
"""

from repro.serving.scaleout.protocol import (
    FrameDecoder,
    ProtocolError,
    encode_frame,
    read_frames,
    send_frame,
)
from repro.serving.scaleout.worker import handle_frame, worker_main

__all__ = [
    "FrameDecoder",
    "ProtocolError",
    "encode_frame",
    "handle_frame",
    "read_frames",
    "send_frame",
    "worker_main",
]
