"""The shared sweep engine: product order, table/CSV bytes, spec keys."""

import dataclasses
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.core.cache import payload_fingerprint
from repro.core.grid import GridReport, run_grid, versioned_key


@dataclass(frozen=True)
class ToySpec:
    letters: Tuple[str, ...] = ("a", "b")
    numbers: Tuple[int, ...] = (1, 2, 3)
    flags: Tuple[bool, ...] = (True, False)
    seed: int = 0


def _point(spec, letter, number, flag):
    return {"letter": letter, "number": number, "flag": flag,
            "seed": spec.seed}


class TestRunGrid:
    def test_product_order_is_nested_loop_order(self):
        spec = ToySpec()
        rows = run_grid(spec, {"letter": spec.letters,
                               "number": spec.numbers,
                               "flag": spec.flags}, _point)
        expected = []
        for letter in spec.letters:
            for number in spec.numbers:
                for flag in spec.flags:
                    expected.append(_point(spec, letter, number, flag))
        assert rows == expected

    def test_axes_bind_by_name_not_position(self):
        spec = ToySpec(seed=7)
        rows = run_grid(spec, {"flag": (False,), "number": (5,),
                               "letter": ("z",)}, _point)
        assert rows == [{"letter": "z", "number": 5, "flag": False,
                         "seed": 7}]

    def test_an_empty_axis_yields_no_rows(self):
        assert run_grid(ToySpec(), {"letter": (), "number": (1,),
                                    "flag": (True,)}, _point) == []


ROWS = [
    {"name": "alpha", "value": 1.5, "ok": True},
    {"name": "b", "value": 22, "ok": False},
]


class TestGridReport:
    def test_table_bytes(self):
        assert GridReport(None, ROWS).table() == (
            "name   value  ok   \n"
            "alpha  1.5    True \n"
            "b      22     False")

    def test_csv_bytes(self):
        assert GridReport(None, ROWS).csv() == (
            "name,value,ok\n"
            "alpha,1.5,True\n"
            "b,22,False\n")

    def test_csv_follows_the_header_column_order(self):
        rows = [{"x": 1, "y": 2}, {"y": 4, "x": 3}]
        assert GridReport(None, rows).csv() == "x,y\n1,2\n3,4\n"

    def test_no_rows_render_empty(self):
        empty = GridReport(ToySpec())
        assert empty.rows == []
        assert empty.table() == ""
        assert empty.csv() == ""


class TestVersionedKey:
    def test_equals_the_folded_payload_fingerprint(self):
        spec = ToySpec()
        payload = dataclasses.asdict(spec)
        payload["toy_version"] = 3
        assert versioned_key(spec, "toy_version", 3) == \
            payload_fingerprint(payload)

    @pytest.mark.parametrize("change", [
        dict(letters=("a",)),
        dict(numbers=(1, 2)),
        dict(flags=(True,)),
        dict(seed=1),
    ])
    def test_sensitive_to_every_field(self, change):
        base = ToySpec()
        assert (versioned_key(dataclasses.replace(base, **change), "v", 1)
                != versioned_key(base, "v", 1))

    def test_sensitive_to_the_version(self):
        spec = ToySpec()
        assert versioned_key(spec, "v", 1) == versioned_key(spec, "v", 1)
        assert versioned_key(spec, "v", 1) != versioned_key(spec, "v", 2)
        assert versioned_key(spec, "v", 1) != versioned_key(spec, "w", 1)
