"""The seven reference models of the benchmark suite (Table 1), scaled down
but architecturally faithful to the paper's definitions."""

from .resnet import BasicBlockV15, MiniResNet
from .ssd import AnchorGrid, MiniSSD, decode_boxes, encode_boxes, match_anchors
from .roi import roi_align
from .maskrcnn import MiniMaskRCNN
from .gnmt import MiniGNMT
from .transformer import MiniTransformer
from .ncf import NCF
from .minigo import MiniGoNet

__all__ = [
    "BasicBlockV15",
    "MiniResNet",
    "AnchorGrid",
    "MiniSSD",
    "decode_boxes",
    "encode_boxes",
    "match_anchors",
    "roi_align",
    "MiniMaskRCNN",
    "MiniGNMT",
    "MiniTransformer",
    "NCF",
    "MiniGoNet",
]
