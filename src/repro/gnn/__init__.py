"""Graph neural network layers and stacks (survey Sec. 4.3, Table 5).

Homogeneous convolutions (GCN, GraphSAGE, GAT, GIN, GatedGraph), the dense
variant used with learned adjacencies, heterogeneous convolutions (RGCN,
HeteroConv), hypergraph convolution (HGNN), a graph autoencoder, and
permutation-invariant readouts.
"""

from repro.gnn.conv import GCNConv, SAGEConv, GINConv, GatedGraphConv
from repro.gnn.attention import GATConv
from repro.gnn.dense import DenseGCNConv, DenseGNN
from repro.gnn.hetero import RGCNConv, HeteroConv, HeteroGNN
from repro.gnn.hyper import HypergraphConv, HypergraphGNN
from repro.gnn.autoencoder import GraphAutoencoder
from repro.gnn.readout import (
    AttentionReadout,
    max_readout,
    mean_readout,
    sum_readout,
)
from repro.gnn.networks import GCN, GAT, GIN, GraphSAGE, GatedGNN, build_network
from repro.gnn.sampling import sample_neighborhood, train_sampled

__all__ = [
    "GCNConv",
    "SAGEConv",
    "GINConv",
    "GatedGraphConv",
    "GATConv",
    "DenseGCNConv",
    "DenseGNN",
    "RGCNConv",
    "HeteroConv",
    "HeteroGNN",
    "HypergraphConv",
    "HypergraphGNN",
    "GraphAutoencoder",
    "AttentionReadout",
    "max_readout",
    "mean_readout",
    "sum_readout",
    "GCN",
    "GAT",
    "GIN",
    "GraphSAGE",
    "GatedGNN",
    "build_network",
    "sample_neighborhood",
    "train_sampled",
]
