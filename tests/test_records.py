"""The package's result classes behave as frozen value records."""

import copy

import pytest

from cvbell.analysis import PurityReport
from cvbell.bell import BellEvaluation, BellSettings, SlopeResult
from cvbell.curves import ThresholdReport
from cvbell.dynamics import SteadyStateReport
from cvbell.modes import (
    MaximizeResult,
    MixtureSpec,
    NormalModes,
    SqueezedStateParams,
)
from cvbell.phase_space import TwoModePoint
from cvbell.reports import ReportRecord
from cvbell.tolerances import TOLERANCES, Tolerances

#: (class, the leading fields by name, the defaults of the others,
#: positional arguments that the class rejects or None)
RECORDS = [
    (SqueezedStateParams, {"r": 1.0, "d": 0.5}, {"nbar": 0.0}, (-1.0, 0.5)),
    (NormalModes, {"s1": 0.5, "s2": 1.5}, {}, (0.0, 1.5)),
    (MixtureSpec, {"p": 0.5, "r": 1.5}, {"kind": "werner-thermal"},
     (1.5, 1.5)),
    (MaximizeResult, {"params": {"J": 0.1}, "b_max": 2.1, "free": ("J",)},
     {}, None),
    (Tolerances, {"bessel_switch": 15.0},
     {k: v for k, v in TOLERANCES.as_dict().items() if k != "bessel_switch"},
     None),
    (ThresholdReport, {"kind": "werner-thermal", "r": 1.5, "p_star": 0.9,
                       "violated_at_unit_weight": True,
                       "best_b_at_unit_weight": 2.2}, {}, None),
    (ReportRecord, {"meta": {"tool": "cvbell"}}, {"columns": (), "rows": ()},
     ({}, ("x",), ((1, 2),))),
    (BellSettings, {"J": 0.01}, {}, (-1.0,)),
    (BellEvaluation, {"B": 2.1, "correlations": (1.0, 0.5, 0.5, -0.1),
                      "settings": BellSettings(0.01)}, {}, None),
    (SlopeResult, {"slope": 1.0, "anchored": True, "b_zero": 2.0}, {}, None),
    (PurityReport, {"pure": True, "residual": 0.0}, {}, None),
    (SteadyStateReport, {"exists": True, "classification": "thermal",
                         "limit_form": NormalModes(1.0, 1.0)}, {}, None),
    (TwoModePoint, {"alpha1": 0.5 + 0j, "alpha2": 1.5 + 0j}, {}, None),
]


@pytest.mark.parametrize("cls, given, defaults, invalid", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_semantics(cls, given, defaults, invalid):
    record = cls(*given.values())
    fields = {**given, **defaults}
    assert record == cls(**given) == cls(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    listed = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({listed})"
    if invalid is not None:
        with pytest.raises(ValueError):
            cls(*invalid)

    name = next(iter(given))
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert getattr(record, name) == given[name]

    twin = cls(**copy.deepcopy(fields))
    assert twin == record and not twin != record
    try:
        hash(tuple(fields.values()))
    except TypeError:  # a dict field, as in MaximizeResult.params
        pass
    else:
        assert hash(twin) == hash(record)

    # the same values in a subclass, a tuple or another record differ:
    # NormalModes(0.5, 1.5), MixtureSpec(0.5, 1.5) and TwoModePoint(0.5,
    # 1.5) are three different things
    subclass = type("Sub", (cls,), {})
    assert subclass(**fields) != record and record != subclass(**fields)
    assert record != tuple(fields.values())
    others = [other(*values.values()) for other, values, _, _ in RECORDS
              if other is not cls]
    assert all(record != other for other in others)
