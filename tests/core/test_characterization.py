"""Tests for the Fig. 1 characterization flow A→D."""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.cells.cell import DrivePolarity
from repro.core.characterization import (
    FIXED_GRID_EVALUATIONS,
    AdaptiveConfig,
    characterize_cell,
    characterize_library,
    characterize_pin,
)
from repro.core.parameters import ParameterSpace
from repro.electrical.spice import AnalyticalSpice
from repro.errors import CharacterizationError
from repro.units import FF


class TestPinCharacterization:
    @pytest.fixture(scope="class")
    def nor_rise(self, spice, library, space):
        cell = library["NOR2_X2"]
        return characterize_pin(spice, cell, cell.pins[0], DrivePolarity.RISE,
                                space=space, n=3)

    def test_zero_deviation_at_nominal(self, nor_rise, space):
        # f(v_nom, c) must be ~0 for every load: the deviation is defined
        # relative to the same-load nominal delay.
        for c in (0.5 * FF, 4 * FF, 64 * FF):
            assert abs(nor_rise.deviation(space.v_nom, c)) < 0.02

    def test_deviation_sign(self, nor_rise):
        assert nor_rise.deviation(0.55, 4 * FF) > 0.2   # slower at low V
        assert nor_rise.deviation(1.10, 4 * FF) < -0.1  # faster at high V

    def test_delay_matches_spice_within_percent(self, nor_rise, spice, library):
        cell = library["NOR2_X2"]
        for v in (0.6, 0.8, 1.0):
            for c in (1 * FF, 16 * FF):
                predicted = nor_rise.delay(v, c)
                actual = spice.model.pin_delay(cell, cell.pins[0],
                                               DrivePolarity.RISE, v, c)
                assert predicted == pytest.approx(actual, rel=0.03)

    def test_nominal_delay_interpolation(self, nor_rise):
        d2 = nor_rise.nominal_delay(2 * FF)
        d4 = nor_rise.nominal_delay(4 * FF)
        assert d2 < d4
        between = nor_rise.nominal_delay(np.sqrt(8.0) * FF)
        assert d2 < between < d4

    def test_evaluation_error_structure(self, nor_rise):
        mean, std, maximum = nor_rise.evaluation_error(32)
        assert 0 <= mean <= maximum
        assert std >= 0
        assert maximum < 0.05  # N=3 stays well under 5 %

    def test_paper_fig5_magnitudes(self, nor_rise):
        mean, _std, maximum = nor_rise.evaluation_error(64)
        # Paper: avg 0.38 %, max 2.41 % — same order of magnitude expected.
        assert mean < 0.01
        assert maximum < 0.03


class TestOrderTrend:
    def test_error_decreases_with_order(self, spice, library, space):
        cell = library["NAND2_X1"]
        maxima = []
        for n in (1, 2, 3):
            pc = characterize_pin(spice, cell, cell.pins[0],
                                  DrivePolarity.FALL, space=space, n=n)
            maxima.append(pc.evaluation_error(32)[2])
        assert maxima[0] > maxima[1] > maxima[2]

    def test_subsampling_changes_sample_count(self, spice, library, space):
        cell = library["INV_X1"]
        few = characterize_pin(spice, cell, cell.pins[0], DrivePolarity.RISE,
                               space=space, n=2, subsample_factor=1)
        many = characterize_pin(spice, cell, cell.pins[0], DrivePolarity.RISE,
                                space=space, n=2, subsample_factor=4)
        assert many.fit.sample_count > few.fit.sample_count


class TestCellAndLibrary:
    def test_cell_covers_all_pins_and_polarities(self, spice, library, space):
        cell = library["NAND3_X1"]
        result = characterize_cell(spice, cell, space=space, n=2)
        assert len(result.pins) == 6
        assert result.entry("A2", DrivePolarity.FALL).pin_index == 1
        with pytest.raises(KeyError):
            result.entry("B9", DrivePolarity.RISE)
        assert result.worst_fit_error() >= 0
        assert result.elapsed_seconds > 0

    def test_library_characterization(self, characterization, library):
        assert set(characterization.cells) == set(library.names())
        entries = list(characterization.all_entries())
        expected = sum(2 * cell.num_inputs for cell in library)
        assert len(entries) == expected

    def test_compile_produces_table(self, characterization, library):
        table = characterization.compile()
        assert table.num_types == len(library)
        assert table.n == characterization.n


@pytest.fixture(scope="module")
def adaptive_result(library):
    """Full-library adaptive characterization plus its SPICE eval count."""
    spice = AnalyticalSpice()
    result = characterize_library(library, spice, adaptive=AdaptiveConfig())
    return result, spice.delay_evaluations


class TestAdaptiveCharacterization:
    def test_accuracy_parity_matrix(self, adaptive_result, characterization):
        """Every Nangate15 entry stays at fixed-grid accuracy parity.

        Yardstick per entry: max |fit − reference| on the 64×64
        normalized probe, where the reference is the *fixed* grid's
        bilinear interpolation (the Fig. 4/5 error definition).  The
        adaptive fit may not be worse than 1.1× the fixed fit's own
        error (floored at 2 % of d_nom so near-exact fixed fits do not
        make the bound degenerate).
        """
        adaptive, _ = adaptive_result
        nv = np.linspace(0.0, 1.0, 64)[:, None]
        nc = np.linspace(0.0, 1.0, 64)[None, :]
        offenders = []
        for fixed_cell in characterization.cells.values():
            for fixed_entry in fixed_cell.pins:
                reference = fixed_entry.reference(nv, nc)
                fixed_error = float(np.abs(
                    fixed_entry.fit.polynomial.evaluate(nv, nc)
                    - reference).max())
                entry = adaptive.entry(fixed_entry.cell_name,
                                       fixed_entry.pin_name,
                                       fixed_entry.polarity)
                error = float(np.abs(
                    entry.fit.polynomial.evaluate(nv, nc) - reference).max())
                if error > max(1.1 * fixed_error, 0.02):
                    offenders.append((fixed_entry.cell_name,
                                      fixed_entry.pin_name,
                                      fixed_entry.polarity.name,
                                      error, fixed_error))
        assert not offenders, f"{len(offenders)} entries: {offenders[:5]}"

    def test_library_error_within_paper_thresholds(self, adaptive_result):
        # The Fig. 4 headline bounds (avg max < 2.7 %, worst < 5.35 %)
        # must hold for the adaptive fits against their own references.
        adaptive, _ = adaptive_result
        maxima = [entry.evaluation_error(64)[2]
                  for entry in adaptive.all_entries()]
        assert float(np.mean(maxima)) < 0.027
        assert float(np.max(maxima)) < 0.0535

    def test_at_least_3x_fewer_evaluations(self, adaptive_result):
        adaptive, performed = adaptive_result
        entries = list(adaptive.all_entries())
        fixed_total = FIXED_GRID_EVALUATIONS * len(entries)
        assert performed == adaptive.total_evaluations()
        assert fixed_total >= 3 * performed

    def test_budget_respected_per_entry(self, adaptive_result):
        adaptive, _ = adaptive_result
        config = AdaptiveConfig()
        seed = (len(config.seed_voltage_fractions) + 1) * \
            len(config.seed_load_fractions)
        for entry in adaptive.all_entries():
            assert seed <= entry.evaluations <= config.budget

    def test_auto_order_selection_varies(self, adaptive_result):
        adaptive, _ = adaptive_result
        orders = {entry.fit.polynomial.n for entry in adaptive.all_entries()}
        assert orders <= {1, 2, 3, 4}
        assert adaptive.n == max(orders)

    def test_fixed_order_override(self, library):
        subset = library.select(["INV"])
        result = characterize_library(
            subset, AnalyticalSpice(), adaptive=AdaptiveConfig(order=2))
        assert {entry.fit.polynomial.n
                for entry in result.all_entries()} == {2}

    def test_mixed_order_compile_pads_coefficients(self, adaptive_result):
        adaptive, _ = adaptive_result
        table = adaptive.compile()
        assert table.n == adaptive.n
        side = table.n + 1
        # A lower-order entry's coefficients land zero-padded at the
        # high-power end; Horner evaluation is then bit-identical.
        for entry in adaptive.all_entries():
            coeffs = entry.fit.polynomial.coefficients
            if coeffs.shape[0] < side:
                break
        else:
            pytest.skip("library selected one order everywhere")
        nv = np.linspace(0.0, 1.0, 7)
        padded = np.zeros((side, side))
        padded[:coeffs.shape[0], :coeffs.shape[1]] = coeffs
        from repro.core.polynomial import SurfacePolynomial
        np.testing.assert_array_equal(
            SurfacePolynomial(padded).evaluate(nv[:, None], nv[None, :]),
            entry.fit.polynomial.evaluate(nv[:, None], nv[None, :]))

    def test_config_validation(self):
        with pytest.raises(CharacterizationError):
            AdaptiveConfig(target_error=0.0)
        with pytest.raises(CharacterizationError):
            AdaptiveConfig(budget=10)  # smaller than the seed grid
        with pytest.raises(CharacterizationError):
            AdaptiveConfig(order=7)

    def test_tighter_target_spends_more(self, library, space):
        spice = AnalyticalSpice()
        cell = library["NOR2_X2"]
        loose = characterize_pin(
            spice, cell, cell.pins[0], DrivePolarity.RISE, space=space,
            adaptive=AdaptiveConfig(target_error=0.05, budget=80))
        tight = characterize_pin(
            spice, cell, cell.pins[0], DrivePolarity.RISE, space=space,
            adaptive=AdaptiveConfig(target_error=0.005, budget=80))
        assert tight.evaluations >= loose.evaluations


class TestInjectedFitFaults:
    def test_injected_fit_failure_surfaces(self, library):
        from repro import faults
        subset = library.select(["INV"])
        with faults.injected("charz.fit:raise@n=1"):
            with pytest.raises(Exception) as info:
                characterize_library(subset, AnalyticalSpice())
        assert "charz.fit" in str(info.value)

    @pytest.mark.parametrize("nth", [1, 40], ids=["first-fit", "mid-refinement"])
    def test_worker_death_propagates_and_stores_nothing(self, library, tmp_path,
                                                        nth):
        """A ``die`` is no cell failure: nothing supervises the inline
        flow, so the death reaches the caller before any cell is written
        to the cache — also once every entry of a cell has fitted."""
        from repro import faults
        from repro.core.charz_cache import CoefficientCache

        subset = library.select(["INV", "NAND2", "NOR2"])
        cache_dir = tmp_path / "charz"
        CoefficientCache.clear_memo()
        try:
            with faults.injected(f"charz.fit:die@n={nth}"):
                with pytest.raises(faults.WorkerDeathError):
                    characterize_library(subset, AnalyticalSpice(),
                                         adaptive=AdaptiveConfig(),
                                         cache=str(cache_dir))
            assert not cache_dir.exists()  # created by the first store

            CoefficientCache.clear_memo()  # fresh-process equivalent
            spice = AnalyticalSpice()
            rerun = characterize_library(subset, spice, adaptive=AdaptiveConfig(),
                                         cache=str(cache_dir))
            assert spice.delay_evaluations == rerun.total_evaluations()
        finally:
            CoefficientCache.clear_memo()


# -- lockstep characterization: bit-identity, batching, pay-once, failure ---------


def entry_record(entry):
    """Every reproducible field of one entry, floats as exact hex."""
    fit = entry.fit
    return (
        entry.cell_name, entry.pin_name, entry.polarity.name, entry.evaluations,
        entry.sweep.voltages.tobytes().hex(), entry.sweep.loads.tobytes().hex(),
        fit.polynomial.n, fit.polynomial.coefficients.tobytes().hex(),
        fit.mean_abs_error.hex(), fit.rms_error.hex(), fit.max_abs_error.hex(),
        float(fit.r_squared).hex(), fit.condition_number.hex(),
        fit.sample_count, fit.method,
    )


def full_record(entry):
    """`entry_record` plus the arrays a cached round trip rebuilds from."""
    return entry_record(entry) + (
        entry.sweep.delays.tobytes().hex(), entry.nominal_delays.tobytes().hex(),
        entry.reference.values.tobytes().hex())


def library_pins(result):
    orders = {}
    for entry in result.all_entries():
        orders[entry.fit.polynomial.n] = orders.get(entry.fit.polynomial.n, 0) + 1
    return {
        "table": hashlib.sha256(np.ascontiguousarray(
            result.compile().coefficients).tobytes()).hexdigest(),
        "entries": hashlib.sha256(json.dumps(
            [entry_record(entry) for entry in result.all_entries()]
        ).encode()).hexdigest(),
        "evaluations": result.total_evaluations(),
        "orders": orders,
    }


PIN_FAMILIES = ("INV", "NAND2", "NOR3", "AOI21", "XOR2", "MUX2")

#: A one-load-line seed: every dense sample has φ_C = 0.5, so the load
#: columns of X are exact multiples of each other, XᵀX is singular and
#: every fit of the flow takes the ``lstsq`` fallback.
SINGULAR = dict(seed_load_fractions=(0.5,))


class TestBitIdentityPins:
    """Recorded with the per-entry flow at the commit before the lockstep
    rewrite (f5841ec): the compiled table's SHA-256, and a SHA-256 over
    per entry evaluations, final sweep axes, chosen half-order,
    coefficients and every reproducible ``FitResult`` field (exact hex
    floats; ``solve_seconds`` is a wall time).  21 cells, 92 entries."""

    def test_adaptive(self, library):
        result = characterize_library(library.select(PIN_FAMILIES),
                                      AnalyticalSpice(), adaptive=AdaptiveConfig())
        assert library_pins(result) == {
            "table": "8b3d097eb29927e6c774dd1dae8d4a7f1a5a59ae7d375ea69c19c5460196b920",
            "entries": "6c9cd91f79c7c776e25b1b7e9c67e5c5a1ed8c65c015bce133c00b4ee7600c11",
            "evaluations": 2956,
            "orders": {3: 18, 4: 74},
        }

    def test_fixed(self, library):
        result = characterize_library(library.select(PIN_FAMILIES),
                                      AnalyticalSpice(), n=3)
        assert library_pins(result) == {
            "table": "77ae4c0ffd3e3884e02ca1e17c4b7c40e3018d0df345f945522cbc8d22d9aa44",
            "entries": "08bd74b9a75514b3ad80e9b224534fe366b6b27e36079d8e5db1a560f86e5311",
            "evaluations": 9936,
            "orders": {3: 92},
        }

    def test_singular_normal_equations_fall_back_in_a_batch(self, library):
        result = characterize_library(library.select(["INV"]), AnalyticalSpice(),
                                      adaptive=AdaptiveConfig(**SINGULAR))
        assert {entry.fit.method for entry in result.all_entries()} == {"lstsq"}
        assert library_pins(result) == {
            "table": "96bd6d1b591430d97e403ad3b275d6a615692275a85e3e798982a42aab760daa",
            "entries": "50eafa9f83195dbad6ad5d0c31bf22da1bb87140c1ccc9e5b1ae6b319f1b9487",
            "evaluations": 360,
            "orders": {4: 10},
        }


BATCH_CONFIGS = {
    "default": AdaptiveConfig(),
    "order2": AdaptiveConfig(order=2),
    # A budget between the seed (15) and the default: entries run out of
    # it after one to three lines, in different waves.
    "budget24": AdaptiveConfig(budget=24),
    "singular": AdaptiveConfig(**SINGULAR),
    "fixed": None,
}


def refinement_fits(entry, config):
    """Fits the refinement loop spends on an entry: one per grid it stood on."""
    if config is None:
        return 1
    seed_v = len(set(config.seed_voltage_fractions) | {
        float(entry.space.normalize_voltage(entry.space.v_nom))})
    seed_c = len(set(config.seed_load_fractions))
    return 1 + (entry.sweep.voltages.size - seed_v) + (entry.sweep.loads.size - seed_c)


@pytest.fixture(scope="module")
def batch_subset(library):
    return library.select(["INV", "NOR2", "AOI21"])


@pytest.fixture(scope="module")
def batch_references(batch_subset):
    """All-at-once inline results per config, keyed by entry identity."""
    out = {}
    for name, config in BATCH_CONFIGS.items():
        result = characterize_library(batch_subset, AnalyticalSpice(),
                                      adaptive=config)
        out[name] = {(e.cell_name, e.pin_name, e.polarity): e
                     for e in result.all_entries()}
    return out


class TestBatchingIsInvisible:
    """An entry's result does not depend on which entries share its batch."""

    def test_any_partition_any_order(self, batch_subset, batch_references):
        from hypothesis import given, settings, strategies as st

        from repro import faults
        from repro.core.characterization import (_characterize, _CharzTask,
                                                 _FitPlans)

        cells = {cell.name: cell for cell in batch_subset}
        entries = [(cell.name, pin, polarity)
                   for cell in batch_subset
                   for pin in sorted(cell.pins, key=lambda p: p.index)
                   for polarity in (DrivePolarity.RISE, DrivePolarity.FALL)]

        @settings(derandomize=True, max_examples=25, deadline=None)
        @given(config=st.sampled_from(sorted(BATCH_CONFIGS)),
               order=st.permutations(range(len(entries))),
               cuts=st.sets(st.integers(1, len(entries) - 1), max_size=6),
               shared_plans=st.booleans())
        def check(config, order, cuts, shared_plans):
            adaptive = BATCH_CONFIGS[config]
            space = ParameterSpace.paper_default()

            def plans():
                return _FitPlans(space, 3, 4, "auto", adaptive)

            shared = plans()
            bounds = [0] + sorted(cuts) + [len(entries)]
            spice = AnalyticalSpice()
            got = []
            with faults.injected("charz.fit:delay@n=1000000000") as plan:
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    # One task per cell of the batch, entries in drawn order.
                    tasks = {}
                    for index in order[lo:hi]:
                        name, pin, polarity = entries[index]
                        tasks.setdefault(name, _CharzTask(cells[name], None, []))
                        tasks[name].entries.append((pin, polarity))
                    batch = list(tasks.values())
                    _characterize(spice, batch, shared if shared_plans else plans())
                    for task in batch:
                        assert task.error is None
                        got += task.result.pins
                trips = plan.calls("charz.fit")
            assert len(got) == len(entries)
            reference = batch_references[config]
            for entry in got:
                expected = reference[(entry.cell_name, entry.pin_name, entry.polarity)]
                assert full_record(entry) == full_record(expected)
            assert trips == sum(refinement_fits(e, adaptive) for e in got)
            assert spice.delay_evaluations == sum(e.evaluations for e in got)

        check()

    @pytest.mark.parametrize("config", sorted(BATCH_CONFIGS))
    def test_public_batch_shapes_agree(self, batch_subset, batch_references, config):
        """Batch of one, per cell and all at once agree bit for bit."""
        adaptive = BATCH_CONFIGS[config]
        reference = batch_references[config]
        for cell in batch_subset:
            per_cell = characterize_cell(AnalyticalSpice(), cell, adaptive=adaptive)
            for entry in per_cell.pins:
                expected = full_record(reference[
                    (entry.cell_name, entry.pin_name, entry.polarity)])
                assert full_record(entry) == expected
                alone = characterize_pin(
                    AnalyticalSpice(), cell, cell.pins[entry.pin_index],
                    entry.polarity, adaptive=adaptive)
                assert full_record(alone) == expected


def spice_calls(monkeypatch):
    """Record the result shape of every ``AnalyticalSpice.delays_at`` call."""
    shapes = []
    real = AnalyticalSpice.delays_at

    def delays_at(self, *args):
        delays = real(self, *args)
        shapes.append(delays.shape)
        return delays

    monkeypatch.setattr(AnalyticalSpice, "delays_at", delays_at)
    return shapes


class TestOrderSelectionMargin:
    """No Nangate15 entry's half-order hangs on the last digits of its scores."""

    def test_no_cv_score_within_a_millionth_of_its_ceiling(self, library, monkeypatch):
        # The scores carry ~1e-13 of rounding (1e-9 before the fold
        # operators); a score this close to the parsimony ceiling would
        # let rounding pick the order.  4.8 % was the closest call when
        # the operators replaced the per-row solves.
        from repro.core.regression import CrossValidation

        config = AdaptiveConfig()
        selections = []
        real = CrossValidation.select

        def select(self, y, tolerance=0.05):
            assert tolerance == config.cv_tolerance
            chosen = real(self, y, tolerance)
            selections.extend(chosen)
            return chosen

        monkeypatch.setattr(CrossValidation, "select", select)
        result = characterize_library(library, AnalyticalSpice(), adaptive=config)
        assert len(selections) == len(list(result.all_entries())) == 370
        closest = min(
            abs(score - ceiling) / ceiling
            for selection in selections
            for ceiling in [min(selection.cv_errors.values())
                            * (1.0 + config.cv_tolerance) + 1e-12]
            for score in selection.cv_errors.values())
        assert closest > 1e-6, closest


class TestPayOnce:
    """Work that depends on the sample grid alone is done once per grid."""

    def test_full_library_adaptive_run(self, library, monkeypatch):
        import weakref

        from repro.core import characterization as charz
        from repro.core import regression
        from repro.core.interpolation import GridInterpolator

        designs, conditions, locates, plans, geometries = [], [], [], [], []
        real_design = regression.design_matrix
        real_cond = np.linalg.cond
        real_locate = GridInterpolator._locate
        real_init = charz._FitPlans.__init__

        def design(v, c, n):
            designs.append((np.asarray(v).tobytes(), np.asarray(c).tobytes(), n))
            return real_design(v, c, n)

        def cond(matrix, *args, **kwargs):
            conditions.append(np.asarray(matrix).tobytes())
            return real_cond(matrix, *args, **kwargs)

        def locate(axis, queries):
            locates.append(len(axis))
            return real_locate(axis, queries)

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            plans.append(weakref.ref(self))
            geometries.append(self._geometries)

        monkeypatch.setattr(regression, "design_matrix", design)
        monkeypatch.setattr(np.linalg, "cond", cond)
        monkeypatch.setattr(GridInterpolator, "_locate", staticmethod(locate))
        monkeypatch.setattr(charz._FitPlans, "__init__", init)
        stacks = spice_calls(monkeypatch)

        result = characterize_library(library, AnalyticalSpice(),
                                      adaptive=AdaptiveConfig())
        entries = list(result.all_entries())
        visited = len(geometries.pop())
        # One SPICE call per sample stack — the seed wave and each
        # (wave chunk, refinement line) — not per entry per line (1670).
        assert visited < len(stacks) <= 64
        assert sum(map(math.prod, stacks)) == result.total_evaluations()
        # 370 entries and ~1670 refinement fits stand on a dozen grids.
        assert 1 < visited <= 16 < len(entries)
        # One max-order design per grid; lower orders and CV folds are
        # sliced out of it, never rebuilt.
        assert len(designs) == len(set(designs)) == visited
        # cond(X) once per (final grid, kept half-order).
        assert len(conditions) == len(set(conditions))
        finals = {(e.sweep.voltages.tobytes(), e.sweep.loads.tobytes(),
                   e.fit.polynomial.n) for e in entries}
        assert len(conditions) == len(finals)
        # Bilinear location per grid (dense + probe stencil, two axes
        # each), not per refinement iteration.
        assert len(locates) <= 4 * visited
        # The plans were call-scoped and hold no cycle: gone without a
        # collection.
        assert [ref() for ref in plans] == [None]


    def test_fixed_flow_is_one_spice_call(self, library, monkeypatch):
        stacks = spice_calls(monkeypatch)
        result = characterize_library(library, AnalyticalSpice(), n=3)
        assert stacks == [(len(list(result.all_entries())), 108)]


class TestFailureIsolation:
    """A failing entry fails its cell; every other cell completes and is cached."""

    def test_failed_cell_alone_is_recharacterized(self, library, tmp_path):
        from repro import faults
        from repro.core.charz_cache import CoefficientCache

        subset = library.select(["INV", "NAND2", "NOR2"])
        config = AdaptiveConfig()
        clean = characterize_library(subset, AnalyticalSpice(), adaptive=config)
        cache_dir = str(tmp_path / "charz")
        CoefficientCache.clear_memo()
        try:
            # The 40th fit of the run: mid-library, second refinement wave.
            with faults.injected("charz.fit:raise@n=40"):
                with pytest.raises(CharacterizationError) as info:
                    characterize_library(subset, AnalyticalSpice(), adaptive=config,
                                         cache=cache_dir)
            message = str(info.value)
            assert "charz.fit" in message
            failed = [cell.name for cell in subset
                      if f"characterization of {cell.name} failed" in message]
            assert len(failed) == 1

            CoefficientCache.clear_memo()  # fresh-process equivalent
            spice = AnalyticalSpice()
            rerun = characterize_library(subset, spice, adaptive=config,
                                         cache=cache_dir)
            assert spice.delay_evaluations == clean.cells[failed[0]].evaluations
            for a, b in zip(clean.all_entries(), rerun.all_entries()):
                assert entry_record(a) == entry_record(b)
        finally:
            CoefficientCache.clear_memo()

    @pytest.mark.parametrize("good_calls", [0, 1], ids=["seed", "first-line"])
    def test_spice_failure_fails_its_cell_only(self, library, tmp_path, good_calls):
        """SPICE rejects one entry — in the seed stack, or in the stack of
        its first refinement line: the stack is replayed entry by entry."""
        from repro.core.charz_cache import CoefficientCache
        from repro.electrical.model import ElectricalModel

        class Diverging(ElectricalModel):
            """Raises once NAND2_X1/A1/RISE was measured ``good_calls`` times."""

            measured = 0

            def pin_delays(self, cells, pins, polarities, v, c):
                if any((cell.name, pin.index, polarity)
                       == ("NAND2_X1", 0, DrivePolarity.RISE)
                       for cell, pin, polarity in zip(cells, pins, polarities)):
                    self.measured += 1
                    if self.measured > good_calls:
                        raise RuntimeError("transient analysis did not converge")
                return super().pin_delays(cells, pins, polarities, v, c)

        subset = library.select(["INV", "NAND2", "NOR2"])
        config = AdaptiveConfig()
        clean = characterize_library(subset, AnalyticalSpice(), adaptive=config)
        lost = clean.cells["NAND2_X1"].evaluations
        cache_dir = str(tmp_path / "charz")
        CoefficientCache.clear_memo()
        try:
            spice = AnalyticalSpice()
            spice.model = Diverging()
            with pytest.raises(CharacterizationError) as info:
                characterize_library(subset, spice, adaptive=config,
                                     cache=cache_dir)
            assert "characterization of NAND2_X1 failed" in str(info.value)
            assert isinstance(info.value.__cause__, RuntimeError)
            assert "did not converge" in str(info.value.__cause__)
            # A stack that raised counted nothing and its replay counted
            # each entry once: the failed cell's first entry stopped it
            # in the seed wave, or after some of its lines were paid for.
            spent = spice.delay_evaluations - (clean.total_evaluations() - lost)
            assert spent == 0 if good_calls == 0 else 0 < spent < lost

            CoefficientCache.clear_memo()  # fresh-process equivalent
            spice = AnalyticalSpice()
            rerun = characterize_library(subset, spice, adaptive=config,
                                         cache=cache_dir)
            assert spice.delay_evaluations == lost
            for a, b in zip(clean.all_entries(), rerun.all_entries()):
                assert entry_record(a) == entry_record(b)
        finally:
            CoefficientCache.clear_memo()

    def test_single_entry_failure_raises_the_original_error(self, library):
        from repro import faults
        from repro.errors import InjectedFaultError

        cell = library["NAND2_X1"]
        with faults.injected("charz.fit:raise@n=3"):
            with pytest.raises(InjectedFaultError):
                characterize_cell(AnalyticalSpice(), cell, adaptive=AdaptiveConfig())
