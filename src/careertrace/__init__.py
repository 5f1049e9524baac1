"""careertrace: researcher career timelines, mobility classes, stocks and
bibliometric indicators from publication metadata."""

__version__ = "0.1.0"

from .corpus import default_scheme, load_corpus
from .timeline import build_timelines
from .mobility import classify, detect_moves

__all__ = [
    "__version__",
    "default_scheme",
    "load_corpus",
    "build_timelines",
    "detect_moves",
    "classify",
]
