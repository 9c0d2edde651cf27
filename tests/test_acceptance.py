"""End-to-end acceptance checks.

Every test prints one PASS/FAIL line so a suite run doubles as an
acceptance report.  The heavy piece, the full study grid of eight
scenarios by three procedures at 50,000 replicates, runs once per
session and is shared by the first four criteria.

Reference values are the published operating characteristics the
simulator is expected to reproduce; tolerances come with each check.
"""

import time

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import binom, multivariate_normal

from stepdown.boundary import CriticalFunction, calibrate_levels, crossing_probability
from stepdown.cli import main
from stepdown.core import HypothesisFamily, SampleSchedule, StatisticPaths
from stepdown.harness import ScenarioSpec, run_cells
from stepdown.paulson import PaulsonConfig, paulson_via_stepdown, run_paulson_direct
from stepdown.procedures import CLOSED, HOLM, holm_fixed, run_multistage, run_multistage_batch
from stepdown.trial import ScenarioParams

ALPHA = 0.05
REPS = 50_000
SEED = 1
SCHEDULE = SampleSchedule((26, 29, 35))

GRID = (
    ScenarioParams(0.0, 0.0, 0.5),
    ScenarioParams(0.0, 0.0, 0.75),
    ScenarioParams(0.0, 0.65, 0.5),
    ScenarioParams(0.0, 0.5, 0.75),
    ScenarioParams(0.5, 0.5, 0.5),
    ScenarioParams(0.4, 0.4, 0.75),
    ScenarioParams(0.5, 0.5, 0.75),
)
CORRELATED = ScenarioParams(0.0, 0.5, 0.75, 0.75)

# (EM, P(rej H1), P(rej H2), P(rej H3), FWE), probabilities in percent;
# FWE is None where no null is true.
REFERENCE = {
    ("(0,0,.5)", "H"): (105.0, 1.7, 1.7, 0.8, 4.0),
    ("(0,0,.5)", "Mult"): (104.7, 1.6, 1.6, 1.8, 4.9),
    ("(0,0,.5)", "MultH"): (104.6, 1.5, 1.5, 2.0, 4.8),
    ("(0,0,.75)", "H"): (105.0, 2.3, 2.3, 76.0, 4.4),
    ("(0,0,.75)", "Mult"): (98.4, 1.7, 1.7, 79.9, 3.2),
    ("(0,0,.75)", "MultH"): (98.3, 2.1, 2.1, 80.7, 4.2),
    ("(0,.65,.5)", "H"): (105.0, 2.5, 95.7, 2.1, 4.4),
    ("(0,.65,.5)", "Mult"): (96.9, 1.6, 94.5, 1.9, 3.4),
    ("(0,.65,.5)", "MultH"): (96.9, 2.2, 94.6, 2.9, 4.9),
    ("(0,.5,.75)", "H"): (105.0, 4.3, 82.9, 83.9, 4.3),
    ("(0,.5,.75)", "Mult"): (92.8, 1.5, 76.3, 80.3, 1.5),
    ("(0,.5,.75)", "MultH"): (92.3, 3.2, 79.9, 85.2, 3.2),
    ("(.5,.5,.5)", "H"): (105.0, 83.4, 83.4, 3.8, 3.8),
    ("(.5,.5,.5)", "Mult"): (93.5, 76.3, 76.3, 1.8, 1.8),
    ("(.5,.5,.5)", "MultH"): (93.1, 79.6, 79.6, 2.7, 2.7),
    ("(.4,.4,.75)", "H"): (105.0, 70.9, 70.9, 86.8, None),
    ("(.4,.4,.75)", "Mult"): (89.9, 55.3, 55.3, 80.2, None),
    ("(.4,.4,.75)", "MultH"): (89.3, 64.7, 64.7, 85.4, None),
    ("(.5,.5,.75)", "H"): (105.0, 88.6, 88.6, 90.0, None),
    ("(.5,.5,.75)", "Mult"): (87.2, 76.4, 76.4, 80.0, None),
    ("(.5,.5,.75)", "MultH"): (86.1, 84.4, 84.4, 87.0, None),
}
# Correlated variant of (0,.5,.75): reference MultH values.
CORRELATED_MULTH = {"prej1": 3.6, "prej2": 77.0, "em": 94.2}


def _report(capsys, number, name, failures):
    with capsys.disabled():
        print(f"[acceptance {number}] {name}: {'FAIL' if failures else 'PASS'}")
        for item in failures:
            print(f"    - {item}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


@pytest.fixture(scope="session")
def sweep():
    """Run the full grid once: (label, procedure) -> summary, plus timings.

    Three ``run_cells`` calls, each drawing every block once for all of
    its cells: the grid's H cells (criterion 1's budget), its staged
    cells (with calibration and the H cells, criterion 8's budget), and
    the correlated scenario, untimed.
    """

    def cells(scenarios, procedures):
        return [
            ScenarioSpec(
                params=params,
                schedule=SCHEDULE,
                procedure=procedure,
                alpha=ALPHA,
                replicates=REPS,
                master_seed=SEED,
            )
            for params in scenarios
            for procedure in procedures
        ]

    def timed(specs):
        t0 = time.perf_counter()
        summaries = run_cells(specs, critical=critical)
        return summaries, time.perf_counter() - t0

    t0 = time.perf_counter()
    critical = calibrate_levels(SCHEDULE, (ALPHA / 3.0, ALPHA / 2.0, ALPHA), "flat")
    calibration_seconds = time.perf_counter() - t0
    h_rows, h_seconds = timed(cells(GRID, ("H",)))
    staged_rows, staged_seconds = timed(cells(GRID, ("Mult", "MultH")))
    correlated_rows = run_cells(cells((CORRELATED,), ("H", "Mult", "MultH")), critical=critical)
    return {
        "critical": critical,
        "summaries": {
            (s.spec.params.label(), s.spec.procedure): s
            for s in h_rows + staged_rows + correlated_rows
        },
        "h_seconds": h_seconds,
        "full_seconds": calibration_seconds + h_seconds + staged_seconds,
    }


def _check_row(summary, expected, tol_prob, tol_em, tag, failures):
    em, p1, p2, p3, fwe = expected
    if abs(summary.em - em) > tol_em:
        failures.append(f"{tag} EM: got {summary.em:.2f}, want {em} +/-{tol_em}")
    for i, want in enumerate((p1, p2, p3)):
        got = 100.0 * summary.p_reject(i)
        if abs(got - want) > tol_prob:
            failures.append(
                f"{tag} P(rej H{i + 1}): got {got:.2f}%, want {want}% +/-{tol_prob}"
            )
    if fwe is not None:
        got = 100.0 * summary.fwe
        if abs(got - fwe) > tol_prob:
            failures.append(f"{tag} FWE: got {got:.2f}%, want {fwe}% +/-{tol_prob}")


def test_criterion_1_fixed_sample_rows(sweep, capsys):
    failures = []
    for params in GRID:
        label = params.label()
        summary = sweep["summaries"][(label, "H")]
        if summary.em != 105.0:
            failures.append(f"{label} H EM: got {summary.em!r}, want exactly 105.0")
        expected = REFERENCE[(label, "H")]
        _check_row(summary, (105.0,) + expected[1:], 1.0, 0.0, f"{label} H", failures)
    if sweep["h_seconds"] >= 60.0:
        failures.append(f"H rows took {sweep['h_seconds']:.1f}s, budget 60s")
    _report(capsys, 1, "fixed-sample step-down rows", failures)


def test_criterion_2_staged_rows(sweep, capsys):
    failures = []
    for params in GRID:
        label = params.label()
        for procedure in ("Mult", "MultH"):
            summary = sweep["summaries"][(label, procedure)]
            expected = REFERENCE[(label, procedure)]
            _check_row(summary, expected, 3.0, 3.0, f"{label} {procedure}", failures)

    base_label = "(0,.5,.75)"
    corr_label = CORRELATED.label()
    for procedure in ("H", "Mult", "MultH"):
        base = sweep["summaries"][(base_label, procedure)]
        corr = sweep["summaries"][(corr_label, procedure)]
        if not corr.p_reject(0) > base.p_reject(0):
            exact = ""
            if procedure == "Mult":
                # Mult tests endpoint 1 alone against the alpha/3 row, and
                # endpoint 1 reads the same draws whatever rho12 is.
                bound = sweep["critical"].boundary(ALPHA / 3.0)
                p1, _, _ = _stopping(_gaussian_survival(CORRELATED.mu1, bound))
                exact = f", exact {100 * p1:.3f}% in both rows"
            failures.append(
                f"correlated {procedure} P(rej H1) did not rise: "
                f"{100 * base.p_reject(0):.2f}% -> {100 * corr.p_reject(0):.2f}%{exact}"
            )
        if not corr.p_reject(1) < base.p_reject(1):
            failures.append(
                f"correlated {procedure} P(rej H2) did not fall: "
                f"{100 * base.p_reject(1):.2f}% -> {100 * corr.p_reject(1):.2f}%"
            )
    corr = sweep["summaries"][(corr_label, "MultH")]
    for got, want, tag in (
        (100 * corr.p_reject(0), CORRELATED_MULTH["prej1"], "P(rej H1)"),
        (100 * corr.p_reject(1), CORRELATED_MULTH["prej2"], "P(rej H2)"),
        (corr.em, CORRELATED_MULTH["em"], "EM"),
    ):
        if abs(got - want) > 3.0:
            failures.append(
                f"correlated MultH {tag}: got {got:.2f}, want {want} +/-3.0"
            )
    _report(capsys, 2, "staged step-down rows", failures)


def test_criterion_3_familywise_error_control(sweep, capsys):
    failures = []
    for params in GRID + (CORRELATED,):
        summary = sweep["summaries"][(params.label(), "MultH")]
        if summary.fwe is None:
            continue
        bound = ALPHA + 3.0 * summary.fwe_se
        if summary.fwe > bound:
            failures.append(
                f"{params.label()} MultH FWE {100 * summary.fwe:.2f}% exceeds "
                f"{100 * bound:.2f}%"
            )

    # Ten randomized closed families of one-sided mean hypotheses
    # H_i: mu <= c_i with c_1 < ... < c_k.  These are closed under
    # intersection, so every stage tests at level alpha outright.  The
    # true mean sits exactly on a randomly chosen cut, the least
    # favorable point for the nulls above it.
    presets = ((20, 30, 45), (26, 29, 35), (15, 25, 40))
    criticals = {
        sched: calibrate_levels(SampleSchedule(sched), (ALPHA,), "flat")
        for sched in presets
    }
    for case in range(10):
        rng = np.random.Generator(np.random.Philox(key=[202608, case]))
        k = int(rng.integers(2, 6))
        cuts = np.cumsum(rng.uniform(0.4, 1.0, size=k))
        j = int(rng.integers(0, k))
        sched = presets[case % len(presets)]
        schedule = SampleSchedule(sched)
        family = HypothesisFamily(k=k, closed_monotone=True)
        root_n = np.sqrt(np.asarray(sched, dtype=float))
        drift = np.outer(cuts, sched)

        increments = rng.standard_normal((REPS, sched[-1])) + cuts[j]
        sums = np.cumsum(increments, axis=1)[:, [n - 1 for n in sched]]
        stats = (sums[:, None, :] - drift[None, :, :]) / root_n
        # One batched call decides every replicate exactly as one
        # run_multistage call each would (tests/test_batch.py).
        rejected, _ = run_multistage_batch(stats, family, schedule, criticals[sched], ALPHA, CLOSED)
        hits = int(rejected[:, j:].any(axis=1).sum())
        fwe_hat = hits / REPS
        se = np.sqrt(fwe_hat * (1.0 - fwe_hat) / REPS)
        if fwe_hat > ALPHA + 3.0 * se:
            failures.append(
                f"closed family {case} (k={k}, schedule={sched}): "
                f"FWE {100 * fwe_hat:.2f}% exceeds {100 * (ALPHA + 3 * se):.2f}%"
            )
    _report(capsys, 3, "familywise error control", failures)


def test_criterion_4_power_and_cost_ordering(sweep, capsys):
    failures = []
    for params in GRID:
        label = params.label()
        h = sweep["summaries"][(label, "H")]
        mult = sweep["summaries"][(label, "Mult")]
        multh = sweep["summaries"][(label, "MultH")]
        for i, is_true in enumerate(params.truth):
            if is_true:
                continue
            # Fixed-sample vs staged comparison only applies to the two
            # Gaussian endpoints: on the count endpoint the fixed rule
            # uses exact tail probabilities while the staged rules use a
            # normal approximation, so the two are not ordered.
            if i < 2:
                slack = 3.0 * np.hypot(h.p_reject_se(i), multh.p_reject_se(i))
                if h.p_reject(i) < multh.p_reject(i) - slack:
                    failures.append(
                        f"{label} H{i + 1}: fixed-sample power "
                        f"{100 * h.p_reject(i):.2f}% below staged-with-stepdown "
                        f"{100 * multh.p_reject(i):.2f}% beyond noise"
                    )
            slack = 3.0 * np.hypot(multh.p_reject_se(i), mult.p_reject_se(i))
            if multh.p_reject(i) < mult.p_reject(i) - slack:
                failures.append(
                    f"{label} H{i + 1}: step-down power "
                    f"{100 * multh.p_reject(i):.2f}% below single-level "
                    f"{100 * mult.p_reject(i):.2f}% beyond noise"
                )
        slack = 3.0 * np.hypot(mult.em_se, multh.em_se)
        if mult.em < multh.em - slack:
            failures.append(
                f"{label}: EM(single-level) {mult.em:.2f} below "
                f"EM(step-down) {multh.em:.2f} beyond noise"
            )
    _report(capsys, 4, "power and sample-cost ordering", failures)


# The oracle's bound on |MC - exact| / SE, fixed before any result was
# seen: Bonferroni at 1e-3 overall over about 100 comparisons.
ORACLE_Z = 4.4
ORACLE_QMC_SEED = 20110710


def _walk_below(analyses, upper):
    """P(S_n / sqrt(n) < upper at every look) for a driftless unit-variance walk."""
    n = np.asarray(analyses, dtype=float)
    if n.size == 1:
        return float(ndtr(upper[0]))
    cov = np.sqrt(np.minimum.outer(n, n) / np.maximum.outer(n, n))
    mvn = multivariate_normal(mean=np.zeros(n.size), cov=cov)
    return float(mvn.cdf(upper, rng=np.random.default_rng(ORACLE_QMC_SEED)))


def _gaussian_survival(mu, bound):
    """P(a mean-mu endpoint has not crossed ``bound`` by look j), for each j."""
    looks = SCHEDULE.analyses
    upper = np.asarray(bound) - mu * np.sqrt(np.asarray(looks, dtype=float))
    return [_walk_below(looks[: j + 1], upper[: j + 1]) for j in range(len(looks))]


def _binary_survival(p, bound):
    """The same for the binary endpoint, by an exact DP over the success count."""
    mass, prev, survive = np.ones(1), 0, []
    for n, b in zip(SCHEDULE.analyses, bound):
        mass = np.convolve(mass, binom.pmf(np.arange(n - prev + 1), n - prev, p))
        z = (np.arange(mass.size) - n / 2.0) / np.sqrt(n / 4.0)
        mass = np.where(z >= b, 0.0, mass)
        survive.append(float(mass.sum()))
        prev = n
    return survive


def _stopping(survive):
    """P(cross), E[N] and Var[N] for an endpoint measured until it first crosses."""
    n = np.asarray(SCHEDULE.analyses, dtype=float)
    stop = -np.diff(np.concatenate(([1.0], survive)))
    stop[-1] += survive[-1]
    mean = float(stop @ n)
    return 1.0 - survive[-1], mean, float(stop @ (n - mean) ** 2)


def _holm_digit_masses(params):
    """Per endpoint, P(the final p-value lies below exactly d of H's Holm levels), d = 0..3."""
    levels = (ALPHA, ALPHA / 2.0, ALPHA / 3.0)
    sup = SCHEDULE.sup
    null_tail = binom.sf(np.arange(sup + 1) - 1, sup, 0.5)
    below = []  # P(p < level) per endpoint and level
    for mu in (params.mu1, params.mu2):
        below.append([float(ndtr(mu * np.sqrt(sup) + ndtri(level))) for level in levels])
    cutoffs = [int(np.argmax(null_tail < level)) for level in levels]
    below.append([float(binom.sf(c - 1, sup, params.p)) for c in cutoffs])
    return [-np.diff([1.0] + row + [0.0]) for row in below]


def _holm_exact(params):
    """Exact P(rej Hi) and FWE of H on independent endpoints: a sum over 64 digit triples."""
    masses = _holm_digit_masses(params)
    p_reject, fwe = [0.0] * 3, 0.0
    for digits in np.ndindex(4, 4, 4):
        weight = float(np.prod([m[d] for m, d in zip(masses, digits)]))
        # Rank r of the ascending p-values is rejected below alpha / (3 - r).
        order = sorted(range(3), key=lambda i: -digits[i])
        rejected = set()
        for rank, i in enumerate(order):
            if digits[i] < 3 - rank:
                break
            rejected.add(i)
        for i in rejected:
            p_reject[i] += weight
        fwe += weight * any(params.truth[i] for i in rejected)
    return p_reject, fwe


def _mult_exact(params, bound):
    """Exact P(rej Hi), FWE, E[total] and Var[total] of Mult on independent endpoints.

    Mult tests each endpoint on its own against the alpha/3 row at every
    look, and an endpoint is measured until it is rejected.
    """
    ends = [
        _stopping(_gaussian_survival(params.mu1, bound)),
        _stopping(_gaussian_survival(params.mu2, bound)),
        _stopping(_binary_survival(params.p, bound)),
    ]
    p_reject = [end[0] for end in ends]
    fwe = 1.0 - np.prod([1.0 - p for p, true in zip(p_reject, params.truth) if true])
    return p_reject, fwe, sum(end[1] for end in ends), sum(end[2] for end in ends)


def test_oracle_uncorrelated_h_and_mult_rows(sweep, capsys):
    # Every P(rej Hi), FWE and Mult EM of the uncorrelated rows against
    # exact values from per-endpoint tails and crossing probabilities,
    # computed apart from the package.
    failures, worst = [], 0.0

    def compare(tag, got, exact, sd):
        nonlocal worst
        z = abs(got - exact) / (sd / np.sqrt(REPS))
        worst = max(worst, z)
        if z > ORACLE_Z:
            failures.append(f"{tag}: got {got:.5f}, exact {exact:.5f}, |z| = {z:.1f}")

    def compare_probability(tag, got, exact):
        compare(tag, got, exact, np.sqrt(exact * (1.0 - exact)))

    bound = sweep["critical"].boundary(ALPHA / 3.0)
    for params in GRID:
        label = params.label()
        h = sweep["summaries"][(label, "H")]
        mult = sweep["summaries"][(label, "Mult")]
        h_reject, h_fwe = _holm_exact(params)
        m_reject, m_fwe, m_em, m_var = _mult_exact(params, bound)
        for i in range(3):
            compare_probability(f"{label} H P(rej H{i + 1})", h.p_reject(i), h_reject[i])
            compare_probability(f"{label} Mult P(rej H{i + 1})", mult.p_reject(i), m_reject[i])
        if any(params.truth):
            compare_probability(f"{label} H FWE", h.fwe, h_fwe)
            compare_probability(f"{label} Mult FWE", mult.fwe, m_fwe)
        compare(f"{label} Mult EM", mult.em, m_em, np.sqrt(m_var))
    with capsys.disabled():
        print(f"[acceptance oracle] largest |z| = {worst:.2f} of bound {ORACLE_Z}")
    _report(capsys, "oracle", "exact uncorrelated H and Mult rows", failures)


def test_criterion_5_single_analysis_equivalence(capsys):
    failures = []
    rng = np.random.default_rng(20260814)
    mismatches = 0
    for _ in range(10_000):
        k = int(rng.integers(1, 9))
        alpha = float(rng.uniform(0.01, 0.12))
        n = int(rng.integers(5, 200))
        stats = rng.normal(loc=rng.choice([0.0, 1.5, 3.0], size=k), scale=1.0)
        pvalues = ndtr(-stats)
        levels = [alpha / m for m in range(1, k + 1)]
        critical = CriticalFunction(
            (n,), {level: (float(-ndtri(level)),) for level in levels}
        )
        result = run_multistage(
            StatisticPaths((n,), stats.reshape(k, 1)),
            HypothesisFamily.simple(k),
            SampleSchedule((n,)),
            critical,
            alpha,
            HOLM,
        )
        if result.rejected != tuple(bool(b) for b in holm_fixed(pvalues, alpha)):
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches}/10000 instances disagreed with holm_fixed")
    _report(capsys, 5, "single-analysis equivalence", failures)


def test_criterion_6_classification_equivalence(capsys):
    failures = []
    configs = (
        PaulsonConfig(thresholds=(0.0,), delta=0.2, critical_value=3.0, horizon=2000),
        PaulsonConfig(thresholds=(-0.5, 0.5), delta=0.15, critical_value=2.5, horizon=2000),
        PaulsonConfig(thresholds=(0.0, 1.0, 2.0), delta=0.25, critical_value=4.0, horizon=2000),
        PaulsonConfig(thresholds=(1.0,), delta=0.1, critical_value=6.0, horizon=3000),
        PaulsonConfig(thresholds=(-1.0, 0.0, 1.0, 2.0), delta=0.3, critical_value=2.0, horizon=1500),
    )
    mismatches = 0
    for c_idx, config in enumerate(configs):
        lo = config.thresholds[0] - 1.0
        hi = config.thresholds[-1] + 1.0
        for rep in range(2000):
            rng = np.random.Generator(np.random.Philox(key=[6001 + c_idx, rep]))
            theta = rng.uniform(lo, hi)
            path = theta + rng.standard_normal(config.horizon)
            direct = run_paulson_direct(path, config)
            staged = paulson_via_stepdown(path, config)
            if (direct.stop_n, direct.decision) != (staged.stop_n, staged.decision):
                mismatches += 1
    if mismatches:
        failures.append(f"{mismatches}/10000 paths disagreed between routes")

    # The one-sided test condition S_m - m(theta - delta/2) >= A and the
    # running-bound condition S_m/m - delta/2 - A/m >= theta - delta are
    # the same inequality; check the two sides agree numerically.
    rng = np.random.default_rng(8)
    size = 100_000
    m = rng.integers(1, 301, size=size).astype(float)
    mean = rng.uniform(-3.0, 3.0, size=size)
    s = mean * m + rng.standard_normal(size) * np.sqrt(m)
    theta = rng.uniform(-3.0, 3.0, size=size)
    delta = rng.uniform(0.01, 1.0, size=size)
    a = rng.uniform(0.5, 10.0, size=size)
    lhs = s / m - delta / 2.0 - a / m - (theta - delta)
    rhs = (s - m * (theta - delta / 2.0) - a) / m
    worst = float(np.max(np.abs(lhs - rhs)))
    if worst > 1e-12:
        failures.append(f"evidence-bound identity off by {worst:.2e} > 1e-12")
    _report(capsys, 6, "sequential classification equivalence", failures)


def test_criterion_7_boundary_calibration(capsys):
    failures = []
    targets = (0.05, 0.025, 0.05 / 2.0, 0.05 / 3.0)
    critical = calibrate_levels(SCHEDULE, (0.05, 0.025, 0.05 / 3.0), "flat")
    for rho in targets:
        bound = critical.boundary(rho)
        hit = crossing_probability(SCHEDULE, bound)
        if abs(hit - rho) > 2e-4:
            failures.append(f"calibration at rho={rho}: crossing {hit:.6f}")

    # Monte Carlo oracle: one million null paths, shared across levels.
    sizes = np.asarray(SCHEDULE.analyses)
    hits = {rho: 0 for rho in (0.05, 0.025, 0.05 / 3.0)}
    paths = 0
    for block in range(10):
        rng = np.random.Generator(np.random.Philox(key=[20260814, 70 + block]))
        sums = rng.standard_normal((100_000, int(sizes[-1]))).cumsum(axis=1)
        sums = sums[:, sizes - 1]
        paths += sums.shape[0]
        for rho in hits:
            thresholds = np.asarray(critical.boundary(rho)) * np.sqrt(sizes)
            hits[rho] += int((sums >= thresholds).any(axis=1).sum())
    for rho, count in hits.items():
        estimate = count / paths
        se = np.sqrt(rho * (1.0 - rho) / paths)
        if abs(estimate - rho) > 3.0 * se:
            failures.append(
                f"MC oracle at rho={rho}: estimate {estimate:.5f} "
                f"is {abs(estimate - rho) / se:.1f} SE from target"
            )

    for rho in (0.05, 0.025, 0.05 / 3.0):
        bound = critical.boundary(rho)
        coarse = crossing_probability(SCHEDULE, bound, grid_points=512)
        fine = crossing_probability(SCHEDULE, bound, grid_points=1024)
        if abs(fine - coarse) >= 1e-5:
            failures.append(
                f"grid refinement at rho={rho} moved crossing by {abs(fine - coarse):.2e}"
            )
    _report(capsys, 7, "boundary calibration", failures)


def test_criterion_8_determinism(sweep, tmp_path, capsys):
    failures = []
    base = [
        "simulate",
        "--scenarios",
        "(0,0,.75) (0,.5,.75,.75)",
        "--procedure",
        "Mult,MultH",
        "--reps",
        "400",
        "--seed",
        "11",
        "--grid",
        "256",
    ]
    outputs = {}
    for workers in (1, 2, 8):
        out = tmp_path / f"workers{workers}.csv"
        code = main(base + ["--workers", str(workers), "--out", str(out)])
        if code != 0:
            failures.append(f"simulate exited {code} with {workers} workers")
            continue
        outputs[workers] = out.read_bytes()
    if len(outputs) == 3 and len(set(outputs.values())) != 1:
        failures.append("CSV bytes differ across 1/2/8 workers")
    if sweep["full_seconds"] >= 300.0:
        failures.append(
            f"full grid took {sweep['full_seconds']:.0f}s, budget 300s"
        )
    _report(capsys, 8, "worker determinism and runtime", failures)
