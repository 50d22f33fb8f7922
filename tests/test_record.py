import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import growthlab
from growthlab.diagrams import ComposeResult, Family, GreenData, green_data
from growthlab.errors import InputError
from growthlab.fusion import FusionGraph, SccReport, fusion_matrix, scc_analysis
from growthlab.growth import ConvergenceReport, ModuleSpec, module_spec
from growthlab.linalg import Mat
from growthlab.oracle import CellModule, CountCheck, cell_module
from growthlab.record import Record
from growthlab.tables import CharTable, PLParams, Reflections, reflections, simple_table
from growthlab.verify import CheckResult, _result


class Pair(Record):
    left: int
    right: object


class Twin(Record):
    left: int
    right: object


def test_fields_are_positional_or_keyword():
    assert Pair(1, "a") == Pair(left=1, right="a") == Pair(1, right="a")
    assert (Pair(1, "a").left, Pair(1, "a").right) == (1, "a")
    assert Pair._fields == ("left", "right")


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((1,), {}),  # missing
        ((), {"left": 1}),
        ((1, 2, 3), {}),  # one too many
        ((1, 2), {"other": 3}),  # unknown
        ((1,), {"left": 1, "right": 2}),  # given twice
    ],
)
def test_a_missing_unknown_or_repeated_field_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_fields_cannot_be_assigned_or_deleted():
    pair = Pair(1, 2)
    with pytest.raises(AttributeError):
        pair.left = 3
    with pytest.raises(AttributeError):
        pair.new = 3
    with pytest.raises(AttributeError):
        del pair.left
    assert pair == Pair(1, 2)


def test_equality_and_hash_are_those_of_the_field_tuple():
    assert Pair(1, (2, 3)) == Pair(1, (2, 3))
    assert Pair(1, 2) != Pair(1, 3)
    # equal values in another record class are not equal
    assert Pair(1, 2) != Twin(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert hash(Pair(1, (2, 3))) == hash((1, (2, 3)))
    assert len({Pair(1, 2), Pair(1, 2), Twin(1, 2)}) == 2
    with pytest.raises(TypeError):
        hash(Pair(1, [2]))


def test_reprs_match_the_former_dataclass_strings():
    # perfbench's green_data digest reads str(GreenData)
    assert str(green_data(Family.TEMPERLEY_LIEB, 4)) == (
        "GreenData(j_class_count=3, l_class_count=6, r_class_count=6, unit_count=1)"
    )
    assert repr(reflections(3, Family.TEMPERLEY_LIEB, 7)) == "Reflections(minus=1, plus=7, critical=False)"
    assert repr(reflections(1, Family.MOTZKIN, 5)) == "Reflections(minus=None, plus=None, critical=True)"
    graph = fusion_matrix(module_spec(Family.PLANAR_ROOK, 3, "V1"), simple_table(Family.PLANAR_ROOK, 3))
    assert repr(scc_analysis(graph)) == "SccReport(components=((0,), (1,), (2,), (3,)), absorbing=(3,))"
    assert repr(_result("x", 1, 2, "loc")) == (
        "CheckResult(check='x', status='fail', lhs='1', rhs='2', location='loc')"
    )
    assert repr(ConvergenceReport(Fraction(1, 2), Fraction(1))) == (
        "ConvergenceReport(chi_sec=Fraction(1, 2), ratio=Fraction(1, 1))"
    )


def test_records_say_what_they_are():
    # one line of their own, not the signature the standard decorator wrote
    records = (GreenData, ComposeResult, Reflections, SccReport, FusionGraph, ConvergenceReport,
               CountCheck, CheckResult, Mat, CellModule)
    for cls in records:
        assert cls.__doc__ and "\n" not in cls.__doc__.strip()


def test_post_init_still_refuses_bad_input():
    with pytest.raises(InputError, match="not upper triangular"):
        CharTable(Family.TEMPERLEY_LIEB, 2, "simple", (0, 2), ((1, 0), (1, 1)))
    # projective tables are not triangular, and not checked
    CharTable(Family.TEMPERLEY_LIEB, 2, "projective", (0, 2), ((1, 0), (1, 1)))
    with pytest.raises(InputError, match="^need l >= 2$"):
        PLParams(7, l=1)
    with pytest.raises(InputError, match="empty character vector"):
        ModuleSpec("V0", Family.TEMPERLEY_LIEB, 2, 1, ())


def test_cached_property_and_pickle():
    spec = module_spec(Family.MOTZKIN, 6, "V2")
    assert spec.bases is spec.bases
    assert "bases" in vars(spec)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and hash(copy) == hash(spec)
    assert copy.bases == spec.bases
    table = simple_table(Family.TEMPERLEY_LIEB, 7)
    assert pickle.loads(pickle.dumps(table)) == table
    # a worker process gets Mat and CellModule values the same way
    assert pickle.loads(pickle.dumps(table.mat)) == table.mat
    module = cell_module(Family.TEMPERLEY_LIEB, 7, 3)
    copy = pickle.loads(pickle.dumps(module))
    assert copy == module and copy.basis == module.basis and copy.dim == 14


def test_a_cold_start_imports_no_dataclasses_inspect_or_typing():
    # -S: no site hooks, which may import typing themselves and hide a regression
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import growthlab, growthlab.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
