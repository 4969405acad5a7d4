"""Report rendering of numpy scalars, now that reports does not import numpy."""

import numpy as np

from cvbell import ReportRecord, to_csv, to_json

PLAIN = ReportRecord(meta={"flag": True, "n": 3, "x": 0.1, "y": 1.5},
                     columns=("b", "i", "f", "g", "s", "nan"),
                     rows=[(True, 7, 0.1, 0.10000000149011612, "w", float("nan")),
                           (False, -2, 1e300, 0.5, "z", float("inf"))])
NUMPY = ReportRecord(meta={"flag": np.bool_(True), "n": np.int64(3),
                           "x": np.float64(0.1), "y": np.float32(1.5)},
                     columns=("b", "i", "f", "g", "s", "nan"),
                     rows=[(np.bool_(True), np.int32(7), np.float64(0.1),
                            np.float32(0.1), np.str_("w"), np.float64("nan")),
                           (np.False_, np.int16(-2), np.longdouble(1e300),
                            np.float16(0.5), "z", np.float32("inf"))])


def test_numpy_scalars_render_like_python_scalars():
    assert to_csv(NUMPY) == to_csv(PLAIN)
    assert to_json(NUMPY) == to_json(PLAIN)


def test_rendering_is_pinned():
    assert to_csv(PLAIN) == (
        "# flag=true\n# n=3\n# x=0.10000000000000001\n# y=1.5\n"
        "b,i,f,g,s,nan\n"
        "true,7,0.10000000000000001,0.10000000149011612,w,nan\n"
        "false,-2,1.0000000000000001e+300,0.5,z,inf\n")
    assert '"rows": [\n    [\n      true,\n      7,' in to_json(PLAIN)
    assert to_json(PLAIN).count("null") == 2
