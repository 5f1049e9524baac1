"""careertrace: researcher career timelines, mobility classes, stocks and
bibliometric indicators from publication metadata."""

__version__ = "0.1.0"

from .corpus import (
    Authorship,
    Corpus,
    PublicationRecord,
    RegionScheme,
    default_scheme,
    load_corpus,
    load_scheme,
    parse_corpus,
    regionalize,
)
from .timeline import CareerTimeline, YearPosition, build_timelines, dominant_region
from .mobility import (
    MobilityClass,
    MobilityState,
    MoveEvent,
    class_of_publication,
    classify,
    detect_moves,
)
from .stocks import (
    ActivityStatus,
    StockCell,
    activity_status,
    build_statuses,
    return_ratio,
    stock_table,
)
from .indicators import (
    CitationBaselines,
    IndicatorEngine,
    PubScore,
    citation_baselines,
    fwci,
    intl_copub,
    top10_flags,
)
from .synth import GroundTruth, ScenarioConfig, degrade, generate

__all__ = [
    "__version__",
    "Authorship",
    "Corpus",
    "PublicationRecord",
    "RegionScheme",
    "default_scheme",
    "load_corpus",
    "load_scheme",
    "parse_corpus",
    "regionalize",
    "CareerTimeline",
    "YearPosition",
    "build_timelines",
    "dominant_region",
    "MobilityClass",
    "MobilityState",
    "MoveEvent",
    "class_of_publication",
    "classify",
    "detect_moves",
    "ActivityStatus",
    "StockCell",
    "activity_status",
    "build_statuses",
    "return_ratio",
    "stock_table",
    "CitationBaselines",
    "IndicatorEngine",
    "PubScore",
    "citation_baselines",
    "fwci",
    "intl_copub",
    "top10_flags",
    "GroundTruth",
    "ScenarioConfig",
    "degrade",
    "generate",
]
