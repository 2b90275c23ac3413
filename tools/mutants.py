"""Checked-in mutants: each one breaks the package on purpose, and a named
test selection must then fail.

    python3 tools/mutants.py    # every mutant, then a summary

A mutant replaces one function or constant of `adipsim` at run time,
named as "module:attribute". It names an object, not a source line, so
it survives edits that a text mutant would not. A replacement forwards
every argument to the original and changes only the argument or result
it mutates, looked up by parameter name. A target that no longer exists,
or no longer has a parameter its mutant changes, stops the run with exit
2, so a change that renames it must update the list here. The
replacement is bound in every loaded `adipsim` module that holds the
original under that name, so a module that imported the target
(`from .array import stream_cycles`) runs the mutant too; a module loaded
later imports the replacement.

The runner first runs the union of all selections on the unmutated
package, which must pass. It then applies each mutant in its own pytest
subprocess, before any test module is imported. A mutant is killed when
its selection fails (pytest exit 1) and every failure is a failed
assertion; a test that raised anything else (a TypeError from a call the
mutant broke, say) makes the run an error. The runner exits 1 if any
mutant survives and 2 on an error, a missing target, or a selection
that does not run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    target: str  # "module:attribute"
    mutate: Callable  # the original object -> its replacement
    tests: tuple[str, ...]  # pytest node ids or paths that must fail


def _arguments(original: Callable, *names: str) -> Callable:
    """A function that binds one call's (args, kwargs) to the parameters of
    `original`, defaults applied. LookupError now, when the mutant is made,
    if one of `names` is no longer a parameter of `original`."""
    signature = inspect.signature(original)
    missing = [name for name in names if name not in signature.parameters]
    if missing:
        raise LookupError(f"mutant target {original.__qualname__} has no parameter {', '.join(missing)}")

    def bind(args, kwargs) -> inspect.BoundArguments:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound

    return bind


def _bill_projections_at(column: int) -> Callable:
    """`cost._records` with both architectures billed from one column
    (0 = DiP's 8-bit record, 1 = ADiP's weight-width record)."""

    def mutate(records):
        return functools.wraps(records)(lambda *args, **kwargs: (records(*args, **kwargs)[column],) * 2)

    return mutate


def _no_output_elements(instance):
    @functools.lru_cache(maxsize=1024)
    @functools.wraps(instance)
    def mutant(*args, **kwargs):
        return instance(*args, **kwargs)._replace(output_elements=0)

    return mutant


def _one_matrix_per_instance(instance):
    bind = _arguments(instance, "nw")

    @functools.lru_cache(maxsize=1024)
    @functools.wraps(instance)
    def mutant(*args, **kwargs):
        bound = bind(args, kwargs)
        bound.arguments["nw"] = 1
        return instance(*bound.args, **bound.kwargs)

    return mutant


def _one_reducer_stage_dropped(stream_cycles):
    bind = _arguments(stream_cycles, "precision")

    @functools.wraps(stream_cycles)
    def mutant(*args, **kwargs):
        precision = bind(args, kwargs).arguments["precision"]
        return stream_cycles(*args, **kwargs) - min(1, precision.reducer_stages)

    return mutant


def _top_slot_sign_flipped(slot_table):
    @functools.cache
    @functools.wraps(slot_table)
    def mutant(*args, **kwargs):
        table = slot_table(*args, **kwargs).copy()
        table[3] = -table[3]
        table.flags.writeable = False
        return table

    return mutant


def _returns_at_once(check):
    return functools.wraps(check)(lambda *args, **kwargs: None)


def _next_field(decode_field):
    bind = _arguments(decode_field, "precision", "t")

    @functools.wraps(decode_field)
    def mutant(*args, **kwargs):
        bound = bind(args, kwargs)
        bound.arguments["t"] = (bound.arguments["t"] + 1) % bound.arguments["precision"].r
        return decode_field(*bound.args, **bound.kwargs)

    return mutant


def _bus_off_by_one(registers):
    """A register function whose bus 0 sum is one too high everywhere."""

    @functools.wraps(registers)
    def mutant(*args, **kwargs):
        out = registers(*args, **kwargs)
        out[..., 1] += 1
        return out

    return mutant


def _no_unrotation(rotated):
    bind = _arguments(rotated, "tiles", "step")

    @functools.wraps(rotated)
    def mutant(*args, **kwargs):
        bound = bind(args, kwargs)
        return rotated(*args, **kwargs) if bound.arguments["step"] > 0 else bound.arguments["tiles"]

    return mutant


def _chunks_twice_as_long(exact_matmuls):
    bind = _arguments(exact_matmuls, "product_bound")

    @functools.wraps(exact_matmuls)
    def mutant(*args, **kwargs):
        bound = bind(args, kwargs)
        bound.arguments["product_bound"] = max(bound.arguments["product_bound"] // 2, 1)
        return exact_matmuls(*bound.args, **bound.kwargs)

    return mutant


MUTANTS = (
    # the cost walk: the width rule and what a record bills
    Mutant(
        "adip-bills-projections-at-8-bits",
        "adipsim.cost:_records",
        _bill_projections_at(0),
        ("tests/test_cost.py::test_projection_latency_improvement",),
    ),
    Mutant(
        "dip-bills-projections-at-weight-width",
        "adipsim.cost:_records",
        _bill_projections_at(1),
        ("tests/test_cost.py::test_projection_latency_improvement",),
    ),
    Mutant(
        "output-bytes-left-out-of-memory-bytes",
        "adipsim.cost:_instance",
        _no_output_elements,
        (
            "tests/test_cost.py::test_output_writes_flag",
            "tests/test_cost.py::test_cost_reports_match_the_pinned_digest",
        ),
    ),
    Mutant(
        "fused-stage-billed-as-one-matrix",
        "adipsim.cost:_instance",
        _one_matrix_per_instance,
        # the simulated gate runs QKVProj as one job of three matrices
        (
            "tests/test_cost.py::test_stage_cost_is_what_the_simulator_runs[ragged-8]",
            "tests/test_cost.py::test_stage_cost_is_what_the_simulator_runs[ragged-4]",
            "tests/test_cost.py::test_stage_cost_is_what_the_simulator_runs[ragged-2]",
            "tests/test_cost.py::test_cost_reports_match_the_pinned_digest",
        ),
    ),
    # the engine
    Mutant(
        "one-reducer-stage-dropped",
        "adipsim.array:stream_cycles",
        _one_reducer_stage_dropped,
        # c03 measures the pass clock on the stepped reference array, which
        # never reads `stream_cycles`; the others state latencies as numbers
        (
            "tests/test_acceptance.py::test_c03_cycle_fidelity_across_sizes",
            "tests/test_analytic.py::test_tile_latency",
            "tests/test_array.py::test_tile_latency_and_emission_schedule",
            "tests/test_acceptance.py::test_c05_throughput_figures_from_simulated_runs",
        ),
    ),
    Mutant(
        "slot-table-top-slot-sign-flipped",
        "adipsim.preprocess:_slot_table",
        _top_slot_sign_flipped,
        # only the traced path reads the slots: untraced outputs come from
        # the weight fields, so c01's untraced runs cannot catch this; c03's
        # traced jobs can
        (
            "tests/test_acceptance.py::test_c03_cycle_fidelity_across_sizes",
            "tests/test_preprocess.py::test_slot_table_and_fields_are_the_bit_field_rule_for_every_word",
            "tests/test_closed_form.py::test_traced_run_tiled_matches_the_stepper_pass_by_pass",
        ),
    ),
    Mutant(
        "accumulator-check-returns-at-once",
        "adipsim.array:_check_accumulator",
        _returns_at_once,
        ("tests/test_cost.py::test_overflow_edge_runs_match_the_pinned_digest",),
    ),
    Mutant(
        "accumulator-limit-one-past",
        "adipsim.array:_PSUM_LIMIT",
        # the gate lets a running sum of exactly 2^31 through
        lambda limit: limit + 1,
        ("tests/test_whole_pass.py::test_full_scale_accumulator_edge",),
    ),
    Mutant(
        "decode-field-reads-the-next-field",
        "adipsim.preprocess:decode_field",
        _next_field,
        ("tests/test_acceptance.py::test_c01_oracle_equivalence_property",),
    ),
    Mutant(
        "mapped-registers-bus-off-by-one",
        "adipsim.array:_mapped_registers",
        _bus_off_by_one,
        (
            "tests/test_acceptance.py::test_c03_cycle_fidelity_across_sizes",
            "tests/test_closed_form.py::test_traced_run_tiled_matches_the_stepper_pass_by_pass",
        ),
    ),
    Mutant(
        "stepped-registers-bus-off-by-one",
        "adipsim.array:_registers",
        _bus_off_by_one,
        # c03's traced jobs form registers clock by clock from n = 15
        (
            "tests/test_acceptance.py::test_c03_cycle_fidelity_across_sizes",
            "tests/test_closed_form.py::test_blocks_split_between_and_within_passes",
        ),
    ),
    Mutant(
        "read-packed-skips-the-unrotation",
        "adipsim.preprocess:_rotated",
        _no_unrotation,
        ("tests/test_preprocess.py::test_packed_file_round_trip",),
    ),
    Mutant(
        "float32-chunks-twice-as-long",
        "adipsim.numerics:exact_matmuls",
        _chunks_twice_as_long,
        ("tests/test_whole_pass.py::test_w8_outputs_are_exact_at_the_chunk_edges",),
    ),
)


def _resolve(target: str):
    """The object `target` names; LookupError if it is gone."""
    module_name, attribute = target.split(":")
    try:
        return getattr(importlib.import_module(module_name), attribute)
    except (AttributeError, ModuleNotFoundError):
        raise LookupError(f"mutant target {target} no longer exists") from None


def apply(mutant: Mutant) -> None:
    """Bind the mutant in place of its target in every loaded `adipsim`
    module that holds the original under the target's name. Matching the
    name as well as the object keeps a constant's patch off other names
    that hold an equal interned value."""
    original = _resolve(mutant.target)
    replacement = mutant.mutate(original)
    attribute = mutant.target.split(":")[1]
    for name, module in list(sys.modules.items()):
        if (name == "adipsim" or name.startswith("adipsim.")) and getattr(module, attribute, None) is original:
            setattr(module, attribute, replacement)


def _pytest(tests, mutant_name="-"):
    """Exit status and output of one pytest subprocess over `tests`, with
    the named mutant ("-" for none) applied first."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child", mutant_name, *tests]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


class _Errors:
    """A pytest plugin that records each test that raised anything but a
    failed assertion (`assert`, numpy's asserts, `pytest.raises`)."""

    def __init__(self, pytest) -> None:
        self.expected = (AssertionError, pytest.fail.Exception, pytest.skip.Exception, pytest.xfail.Exception)
        self.raised: list[str] = []

    def pytest_runtest_makereport(self, item, call) -> None:
        excinfo = call.excinfo
        if excinfo is not None and not excinfo.errisinstance(self.expected):
            self.raised.append(f"{item.nodeid} ({call.when}): {excinfo.typename}: {excinfo.value}")


def _child(mutant_name, tests) -> int:
    """pytest's exit status over `tests` with the named mutant applied, or
    2 if a target is gone or a test raised anything but a failed assertion:
    a mutant that breaks a call (say, a parameter renamed since it was
    written) must not read as killed."""
    import pytest

    if mutant_name != "-":
        try:
            apply(next(m for m in MUTANTS if m.name == mutant_name))
        except LookupError as exc:
            print(f"mutants: {exc}", file=sys.stderr)
            return 2
    errors = _Errors(pytest)
    status = pytest.main(["-q", "-x", "-p", "no:cacheprovider", *tests], plugins=[errors])
    if errors.raised:
        print("mutants: not an assertion failure:", *errors.raised, sep="\n  ", file=sys.stderr)
        return 2
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["--child"]:
        return _child(argv[1], argv[2:])
    if argv:
        print("usage: python3 tools/mutants.py", file=sys.stderr)
        return 2
    try:
        for m in MUTANTS:
            m.mutate(_resolve(m.target))
    except LookupError as exc:
        print(f"mutants: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    status, output = _pytest(sorted({t for m in MUTANTS for t in m.tests}))
    if status != 0:
        print(output, f"mutants: the selections fail on the unmutated package (pytest exit {status})", file=sys.stderr)
        return 2
    worst = 0
    for m in MUTANTS:
        status, output = _pytest(m.tests, m.name)
        if status == 1:
            print(f"killed    {m.name}")
            continue
        print(output, file=sys.stderr)
        print(f"SURVIVED  {m.name}" if status == 0 else f"ERROR     {m.name} (exit {status})")
        worst = max(worst, 1 if status == 0 else 2)
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.1f} s")
    return worst


if __name__ == "__main__":
    sys.exit(main())
