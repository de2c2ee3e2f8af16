"""Digraph-connectivity estimates against exhaustive oracles, bounds, and the grid."""
import io
import math

import pytest

from ringlab.conjecture import (
    GridSpec,
    binomial_bound,
    check_conjectures_grid,
    estimate_not_sc_binomial,
    estimate_not_sc_regular,
    graham_pike_limit,
    write_grid_csv,
    GRID_CSV_HEADER,
)
from ringlab import samplers
from ringlab.errors import InvalidParams
from ringlab.graph import is_strongly_connected
from ringlab.samplers import (
    _BLOCK_NODES,
    RandomSource,
)

from conftest import (
    block_streams,
    exact_not_sc_binomial,
    exact_not_sc_regular,
    reference_digraph_block,
    reference_digraphs,
)


def grid_csv_text(cells):
    buf = io.StringIO()
    write_grid_csv(cells, buf)
    return buf.getvalue()


def test_exact_oracle_k1_n3_is_three_quarters():
    assert exact_not_sc_regular(1, 3) == 0.75


def test_estimate_regular_k1_n3():
    est = estimate_not_sc_regular(1, 3, 8000, RandomSource(21))
    sigma = math.sqrt(0.75 * 0.25 / 8000)
    assert abs(est.estimate - 0.75) <= 3 * sigma
    assert est.ci_low <= est.estimate <= est.ci_high


def test_estimate_regular_k2_n4_matches_81_case_enumeration():
    exact = exact_not_sc_regular(2, 4)
    est = estimate_not_sc_regular(2, 4, 8000, RandomSource(22))
    sigma = math.sqrt(exact * (1 - exact) / 8000)
    assert abs(est.estimate - exact) <= 3 * sigma


def test_estimate_regular_k1_n4_matches_enumeration():
    exact = exact_not_sc_regular(1, 4)
    assert exact == 1 - math.factorial(3) / 3**4
    est = estimate_not_sc_regular(1, 4, 8000, RandomSource(27))
    sigma = math.sqrt(exact * (1 - exact) / 8000)
    assert abs(est.estimate - exact) <= 3 * sigma


def test_estimate_regular_complete_never_fails():
    est = estimate_not_sc_regular(3, 4, 500, RandomSource(23))
    assert est.failures == 0 and est.estimate == 0.0


def test_estimate_binomial_extremes():
    assert estimate_not_sc_binomial(1.0, 5, 300, RandomSource(24)).estimate == 0.0
    assert estimate_not_sc_binomial(0.0, 5, 300, RandomSource(24)).estimate == 1.0


def test_estimate_binomial_half_n3_matches_enumeration():
    exact = exact_not_sc_binomial(0.5, 3)
    est = estimate_not_sc_binomial(0.5, 3, 8000, RandomSource(25))
    sigma = math.sqrt(exact * (1 - exact) / 8000)
    assert abs(est.estimate - exact) <= 3 * sigma


def test_estimate_param_validation():
    with pytest.raises(InvalidParams):
        estimate_not_sc_regular(3, 3, 10, RandomSource(0))
    with pytest.raises(InvalidParams):
        estimate_not_sc_regular(1, 3, 0, RandomSource(0))
    with pytest.raises(InvalidParams):
        estimate_not_sc_binomial(-0.1, 3, 10, RandomSource(0))


def test_estimates_deterministic():
    a = estimate_not_sc_regular(2, 8, 400, RandomSource(26, 5))
    b = estimate_not_sc_regular(2, 8, 400, RandomSource(26, 5))
    assert a == b


# -- trial blocks --------------------------------------------------------------------


def _block_size(n):
    return max(1, _BLOCK_NODES // n)


# (n, k of the regular model, p of the binomial model), chosen so that both
# outcomes occur; n = 300 leaves a ragged last block, and n = _BLOCK_NODES
# runs one trial per block
BLOCK_CASES = [(2, 1, 0.5), (4, 1, 0.5), (16, 3, 0.2), (300, 6, 0.022), (1024, 7, 0.0075),
               (_BLOCK_NODES, 8, 8 / (_BLOCK_NODES - 1))]


def _reference_trials(n, k, p, trials, seed, base):
    """Per trial of a campaign, from the layout-3 reference block by block: whether
    it fails, whether its in-degrees decide it, and its largest in-degree."""
    outcomes = []
    for size, stream in block_streams(seed, base, trials, n):
        degrees, x, rows = reference_digraph_block(n, k, p, size, stream, decide=True)
        digraphs = iter(reference_digraphs(n, degrees, x))
        for row in rows:
            decided = n > 1 and not row.all()
            fails = decided or not is_strongly_connected(next(digraphs))
            outcomes.append((fails, decided, int(row.max())))
    return outcomes


@pytest.mark.parametrize("n, k, p", BLOCK_CASES)
def test_block_estimates_match_per_trial_reference(n, k, p):
    block = _block_size(n)
    trial_counts = sorted({t for t in (1, block - 1, block, block + 1, 2 * block + 3) if t >= 1})
    seed, base = 41, (3 << 32) + 17
    # the reference runs each block's trials one by one from the block's
    # stream, base + j, and checks them with the public oracle
    for trials in trial_counts:
        regular = _reference_trials(n, k, None, trials, seed, base)
        binomial = _reference_trials(n, None, p, trials, seed, base)
        reg = estimate_not_sc_regular(k, n, trials, RandomSource(seed, base))
        bin_ = estimate_not_sc_binomial(p, n, trials, RandomSource(seed, base))
        assert reg.failures == sum(fails for fails, _, _ in regular)
        assert bin_.failures == sum(fails for fails, _, _ in binomial)
    reg_fail = [fails for fails, _, _ in regular]
    bin_fail = [fails for fails, _, _ in binomial]
    assert 0 < sum(bin_fail) < len(bin_fail)
    assert 0 < sum(reg_fail) < len(reg_fail) or n == 2  # k = 1 at n = 2 is complete
    # a trial with a node of in-degree 0 is decided before the subset draw;
    # both kinds occur, side by side in some block when blocks hold more
    # than one trial
    decided = [d for _, d, _ in binomial]
    assert any(decided) and not all(decided)
    if block > 1:
        mixed = [set(decided[i:i + block]) == {False, True} for i in range(0, len(decided), block)]
        assert any(mixed)
        # the binomial trials of some block have different largest in-degrees
        k_max = [top for _, _, top in binomial]
        assert any(len(set(k_max[i:i + block])) > 1 for i in range(0, len(k_max), block))


@pytest.mark.parametrize("n, p", [(2, 0.5), (16, 0.2), (1024, 0.0075)])
def test_binomial_campaign_draws_subsets_only_for_undecided_trials(monkeypatch, n, p):
    # each block draws K*B*n subset words, B its trials with all in-degrees
    # positive and K their largest in-degree: none for a trial with a node
    # of in-degree 0, and none at all at p = 0
    seed, base, trials = 47, 5 << 32, 2 * _block_size(n) + 3
    expected = []
    undecided = 0
    for size, stream in block_streams(seed, base, trials, n):
        degrees, _, _ = reference_digraph_block(n, None, p, size, stream, decide=True)
        expected.append(int(degrees.max(initial=0)) * degrees.size)
        undecided += degrees.size // n
    words = []
    raw_words = samplers._raw_words
    monkeypatch.setattr(samplers, "_raw_words",
                        lambda bitgen, count: words.append(count) or raw_words(bitgen, count))
    est = estimate_not_sc_binomial(p, n, trials, RandomSource(seed, base))
    assert 0 < undecided < trials
    assert words == expected
    assert est.failures >= trials - undecided
    words.clear()
    assert estimate_not_sc_binomial(0.0, n, trials, RandomSource(seed, base)).failures == trials
    assert not any(words)


@pytest.mark.parametrize("n", [1, 2, 4, 16, 300, 1024])
def test_block_estimates_at_the_extremes(n):
    trials = 2 * _block_size(n) + 3
    rng = RandomSource(43, 9)
    if n == 1:
        # a single node is strongly connected
        assert estimate_not_sc_regular(0, 1, trials, rng).failures == 0
        for p in (0.0, 0.5, 1.0):
            assert estimate_not_sc_binomial(p, 1, trials, rng).failures == 0
        return
    # no edges at all: every trial fails
    assert estimate_not_sc_regular(0, n, trials, rng).failures == trials
    assert estimate_not_sc_binomial(0.0, n, trials, rng).failures == trials
    if n <= 300:  # complete digraphs: Floyd costs O(n^3) per trial
        assert estimate_not_sc_binomial(1.0, n, trials, rng).failures == 0
        assert estimate_not_sc_regular(n - 1, n, trials, rng).failures == 0


# -- closed forms --------------------------------------------------------------------


def test_graham_pike_values():
    assert abs(graham_pike_limit(0.0) - (1 - math.exp(-2))) < 1e-15
    assert graham_pike_limit(40.0) < 1e-17
    assert graham_pike_limit(50.0) < graham_pike_limit(40.0) < graham_pike_limit(0.0)


def test_binomial_bound_direct_evaluation():
    # independent evaluation of 1 - exp(-2 exp(ln n - k n/(n-1)))
    k, n = 16, 4096
    expected = 1.0 - math.exp(-2.0 * math.exp(math.log(n) - k * n / (n - 1)))
    assert abs(binomial_bound(k, n) - expected) < 1e-15
    assert 9.0e-4 < binomial_bound(k, n) < 9.3e-4


def test_binomial_bound_identity_with_graham_pike():
    # when p = (ln n + c)/n the bound collapses to the limiting value
    for n in (4, 64, 1024, 4096):
        for c in (-1.0, 0.0, 2.5):
            p = (math.log(n) + c) / n
            k = p * (n - 1)
            assert abs(binomial_bound(k, n) - graham_pike_limit(c)) <= 1e-12


def test_binomial_bound_identity_grid():
    checked = 0
    for k in range(1, 11):
        for n in (4, 8, 16, 64, 256, 512, 1024, 2048, 4096, 8192):
            c = k * n / (n - 1) - math.log(n)
            assert abs(binomial_bound(k, n) - graham_pike_limit(c)) <= 1e-12
            checked += 1
    assert checked == 100


def test_binomial_bound_monotone_decreasing_in_k():
    for n in (8, 128, 4096):
        values = [binomial_bound(k, n) for k in range(0, 25)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        # strictly decreasing once below float saturation at 1.0
        tail = [v for v in values if v < 1.0]
        assert len(tail) >= 5
        assert all(a > b for a, b in zip(tail, tail[1:]))


def test_bound_at_threshold():
    # p = (ln n + c)/n with c = 0 gives 1 - e^{-2} for every n
    target = 1 - math.exp(-2)
    for n in (16, 256, 4096):
        k = math.log(n) * (n - 1) / n
        assert abs(binomial_bound(k, n) - target) < 1e-12


# -- the grid -----------------------------------------------------------------------


def test_grid_spec_feasible_cells():
    spec = GridSpec(k_values=(1, 2, 3, 8), n_values=(4, 16), trials=10)
    assert spec.cells() == [
        (1, 4),
        (1, 16),
        (2, 4),
        (2, 16),
        (3, 4),
        (3, 16),
        (8, 16),
    ]


def test_grid_spec_validation():
    with pytest.raises(InvalidParams):
        GridSpec(k_values=(0,), n_values=(4,), trials=10)
    with pytest.raises(InvalidParams):
        GridSpec(k_values=(1,), n_values=(1,), trials=10)
    with pytest.raises(InvalidParams):
        GridSpec(k_values=(1,), n_values=(4,), trials=0)


def test_full_grid_shape():
    spec = GridSpec.full_grid()
    assert spec.k_values == tuple(range(1, 17))
    assert spec.n_values == tuple(2**e for e in range(2, 13))
    assert spec.trials == 8000


def test_small_grid_cells_and_flags():
    spec = GridSpec(k_values=(1, 2, 3), n_values=(4, 8), trials=2000, seed=3)
    cells = check_conjectures_grid(spec)
    assert len(cells) == 6
    for cell in cells:
        assert cell.p == cell.k / (cell.n - 1)
        assert 0 <= cell.p_reg.ci_low <= cell.p_reg.estimate <= cell.p_reg.ci_high <= 1
        if cell.k >= 2:
            assert cell.conj1_ok and cell.conj2_ok
    # complete-digraph cells have zero failure probability
    spec2 = GridSpec(k_values=(3,), n_values=(4,), trials=500, seed=3)
    cell = check_conjectures_grid(spec2)[0]
    assert cell.p_reg.estimate == 0.0


def test_first_inequality_genuinely_fails_at_k1_small_n():
    # Exhaustive enumeration: a 1-in-regular digraph is strongly connected
    # only when its in-neighbor map is a single n-cycle, which is rarer
    # than strong connectivity under the matched binomial model.  The
    # conjectured ordering therefore reverses at k=1; the grid must
    # report that honestly rather than wave it through.  At n=4 the
    # binomial failure probability also exceeds the asymptotic bound.
    assert exact_not_sc_regular(1, 4) > exact_not_sc_binomial(1 / 3, 4)
    assert exact_not_sc_binomial(1 / 3, 4) > binomial_bound(1, 4)
    spec = GridSpec(k_values=(1,), n_values=(4,), trials=4000, seed=0)
    cell = check_conjectures_grid(spec)[0]
    assert not cell.conj1_ok
    assert not cell.conj2_ok


def test_second_inequality_not_flagged_when_every_trial_fails():
    # At (2, 64) every trial fails, so the estimate is 1 with zero
    # standard error, yet the exact failure probability lies below the
    # bound (1 - 1.4e-7 against 1 - 5e-8).  Only the Wilson lower limit
    # can show a violation; an estimate pinned at 1 must not.
    spec = GridSpec(k_values=(2,), n_values=(64,), trials=500, seed=0)
    cell = check_conjectures_grid(spec)[0]
    assert cell.p_bin.failures == cell.p_bin.trials
    assert cell.bound < 1.0
    assert cell.conj2_ok


def test_grid_deterministic_and_worker_independent():
    spec = GridSpec(k_values=(1, 2), n_values=(4, 8), trials=500, seed=9)
    serial = check_conjectures_grid(spec, workers=1)
    again = check_conjectures_grid(spec, workers=1)
    parallel = check_conjectures_grid(spec, workers=3)
    assert serial == again == parallel
    assert grid_csv_text(serial) == grid_csv_text(parallel)


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records its size, runs tasks inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_grid_pool_bounded_by_tasks_and_cpus(monkeypatch):
    import concurrent.futures

    import ringlab.conjecture as conjecture

    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    # the pool class is imported when a pool is made, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(conjecture.os, "cpu_count", lambda: 4)
    few = GridSpec(k_values=(1,), n_values=(4,), trials=20, seed=2)  # 2 tasks
    many = GridSpec(k_values=(1, 2), n_values=(4, 8), trials=20, seed=2)  # 8 tasks
    assert check_conjectures_grid(few, workers=10**6) == check_conjectures_grid(few)
    check_conjectures_grid(many, workers=10**6)
    check_conjectures_grid(many, workers=3)
    assert _RecordingExecutor.sizes == [2, 4, 3]
    monkeypatch.setattr(conjecture.os, "cpu_count", lambda: None)
    check_conjectures_grid(many, workers=10**6)  # unknown CPU count: serial
    assert _RecordingExecutor.sizes == [2, 4, 3]


def test_grid_csv_schema():
    spec = GridSpec(k_values=(1,), n_values=(4,), trials=200, seed=1)
    text = grid_csv_text(check_conjectures_grid(spec))
    lines = text.splitlines()
    assert lines[0] == GRID_CSV_HEADER
    assert len(lines) == 3
    reg_row = lines[1].split(",")
    bin_row = lines[2].split(",")
    assert reg_row[0] == "reg" and bin_row[0] == "bin"
    assert reg_row[1] == "1" and reg_row[2] == "4"
    assert reg_row[4] == "200"
    assert text.endswith("\n") and "\r" not in text


def test_grid_csv_low_confidence_flag():
    spec = GridSpec(k_values=(3,), n_values=(4,), trials=300, seed=1)
    text = grid_csv_text(check_conjectures_grid(spec))
    reg_row = text.splitlines()[1].split(",")
    # complete digraph: estimate 0 -> below the stability threshold
    assert reg_row[6] == "0" and reg_row[12] == "true"
