"""Buffer component and the Lean XML Fragment Protocol (paper Sec. 4):
open trees with holes, fill-request chasing (Figure 8), granularity
policies, and prefetching."""

from .batch import BatchingBuffer, BatchStats
from .component import BufferComponent, BufferMeter, BufferStats
from .holes import (
    FragElem,
    FragHole,
    Fragment,
    LXPProtocolError,
    OpenElem,
    OpenHole,
    count_holes,
    fragment_of_tree,
    open_tree_to_tree,
    validate_fill_reply,
)
from .lxp import (
    AdaptiveTreeLXPServer,
    LXPServer,
    LXPStats,
    RandomizedLXPServer,
    TreeLXPServer,
    reply_holes,
)
from .prefetch import (
    AsyncPrefetchingBuffer,
    PrefetchingBuffer,
    PrefetchStats,
)

__all__ = [
    "OpenElem", "OpenHole", "FragElem", "FragHole", "Fragment",
    "LXPProtocolError", "validate_fill_reply", "fragment_of_tree",
    "open_tree_to_tree", "count_holes", "reply_holes",
    "LXPServer", "LXPStats", "TreeLXPServer", "AdaptiveTreeLXPServer",
    "RandomizedLXPServer",
    "BufferComponent", "BufferStats", "BufferMeter",
    "PrefetchingBuffer", "AsyncPrefetchingBuffer", "PrefetchStats",
    "BatchingBuffer", "BatchStats",
]
