"""The value classes every command builds behave as ``@dataclass`` made them:
keyword and positional construction under the same names, field-wise and
type-strict ``==``, no hash, the same ``repr`` text, no ``__dict__`` on the
slotted ones, and a corpus that can be held by weak reference; and the run
configuration's grace default is the stock rules' default."""

import weakref

import pytest

from careertrace.config import RunConfig
from careertrace.corpus import Authorship, Corpus, PublicationRecord
from careertrace.mobility import MobilityState, MoveEvent
from careertrace.stocks import DEFAULT_GRACE_YEARS, StockCell
from careertrace.timeline import CareerTimeline, YearPosition

AUTHORSHIP = Authorship("a1", ("CHN", "USA"))
RECORD = PublicationRecord("p1", 1990, 0, ("F1",), "ar", 3, (AUTHORSHIP,))
POSITION = YearPosition(1990, {"CHN": 1.0}, "p1", "CHN")

# (class, field values in declaration order, the repr text it printed as a dataclass)
CASES = [
    (Authorship, {"author_id": "a1", "countries": ("CHN", "USA")},
     "Authorship(author_id='a1', countries=('CHN', 'USA'))"),
    (PublicationRecord,
     {"pub_id": "p1", "year": 1990, "seq": 0, "field_codes": ("F1",), "doc_type": "ar",
      "citation_count": 3, "authorships": (AUTHORSHIP,)},
     "PublicationRecord(pub_id='p1', year=1990, seq=0, field_codes=('F1',), doc_type='ar', "
     "citation_count=3, authorships=(Authorship(author_id='a1', countries=('CHN', 'USA')),))"),
    (Corpus, {"records": [RECORD], "scheme": None, "window": (1990, 2017)},
     "Corpus(records=[PublicationRecord(pub_id='p1', year=1990, seq=0, field_codes=('F1',), "
     "doc_type='ar', citation_count=3, authorships=(Authorship(author_id='a1', "
     "countries=('CHN', 'USA')),))], scheme=None, window=(1990, 2017))"),
    (YearPosition, {"year": 1990, "weights": {"CHN": 1.0}, "source_pub": "p1", "dominant": "CHN"},
     "YearPosition(year=1990, weights={'CHN': 1.0}, source_pub='p1', dominant='CHN')"),
    (CareerTimeline, {"positions": [POSITION]},
     "CareerTimeline(positions=[YearPosition(year=1990, weights={'CHN': 1.0}, source_pub='p1', "
     "dominant='CHN')])"),
    (MoveEvent, {"from_region": "CHN", "to_region": "USA", "year": 1991},
     "MoveEvent(from_region='CHN', to_region='USA', year=1991)"),
    (MobilityState, {"year": 1991, "klass": "Overseas(CHN,USA)", "since_year": 1991},
     "MobilityState(year=1991, klass='Overseas(CHN,USA)', since_year=1991)"),
    (StockCell, {"class_key": "Domestic(CHN)", "year": 1990, "preceding": 1, "new_movement": 2},
     "StockCell(class_key='Domestic(CHN)', year=1990, preceding=1, new_movement=2)"),
    (RunConfig,
     {"home": "USA", "end_year": 2017, "grace_years": 3, "host_attribution": "first",
      "tie_rule": "label_order", "intl_requires_distinct_authors": True, "metrics": ("pp10",),
      "year_min": 1990, "year_max": 2017},
     "RunConfig(home='USA', end_year=2017, grace_years=3, host_attribution='first', "
     "tie_rule='label_order', intl_requires_distinct_authors=True, metrics=('pp10',), "
     "year_min=1990, year_max=2017)"),
]
SLOTTED = {Authorship, PublicationRecord, YearPosition, CareerTimeline, MoveEvent, MobilityState,
           StockCell}
IDS = [cls.__name__ for cls, _, _ in CASES]


def make(cls, values):
    """An instance with these field values; a run configuration is built the
    way the command line builds it, by setting each value on the defaults."""
    if issubclass(cls, RunConfig):
        cfg = cls()
        for name, value in values.items():
            setattr(cfg, name, value)
        return cfg
    return cls(**values)


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_construction_and_repr(cls, values, text):
    inst = make(cls, values)
    assert [getattr(inst, name) for name in values] == list(values.values())
    assert repr(inst) == text
    if cls is not RunConfig:  # positional arguments in field order
        assert cls(*values.values()) == inst


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_equality_is_fieldwise_and_type_strict(cls, values, text):
    inst = make(cls, values)
    assert inst == make(cls, values)
    assert not inst != make(cls, values)
    for name in values:
        assert inst != make(cls, {**values, name: object()}), name
    assert inst != tuple(values.values())
    subclass = type(f"Sub{cls.__name__}", (cls,), {"__slots__": ()} if cls in SLOTTED else {})
    assert inst != make(subclass, values)


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_instances_are_unhashable(cls, values, text):
    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(make(cls, values))


@pytest.mark.parametrize("cls, values, text", [c for c in CASES if c[0] in SLOTTED],
                         ids=[cls.__name__ for cls, _, _ in CASES if cls in SLOTTED])
def test_slotted_instances_have_no_dict(cls, values, text):
    inst = make(cls, values)
    assert cls.__slots__ == tuple(values)
    assert not hasattr(inst, "__dict__")
    with pytest.raises(AttributeError):
        inst.extra = 1


def test_corpus_can_be_held_by_weak_reference():
    corpus = make(Corpus, CASES[2][1])
    ref = weakref.ref(corpus)
    assert ref() is corpus
    del corpus
    assert ref() is None


def test_run_config_is_mutable_and_defaults_apply():
    cfg = RunConfig()
    assert (cfg.home, cfg.end_year, cfg.grace_years, cfg.tie_rule) == ("CHN", None, 2, "hysteresis")
    cfg.home = "USA"
    assert cfg.as_dict()["home"] == "USA"
    assert cfg != RunConfig()
    assert RunConfig().as_dict() == {
        "home": "CHN", "end_year": None, "grace_years": 2, "host_attribution": "latest",
        "tie_rule": "hysteresis", "intl_requires_distinct_authors": False,
        "metrics": ["pp10", "shares", "intl", "class_intl", "direction", "stocks", "ratio"],
        "year_min": None, "year_max": None,
    }


def test_run_config_grace_default_is_the_stock_rules_default():
    """``config`` writes the default out rather than import ``stocks``; the
    two must agree."""
    assert RunConfig().grace_years == DEFAULT_GRACE_YEARS
