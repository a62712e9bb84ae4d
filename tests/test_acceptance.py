"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every tolerance below is part of the release contract; none of
them is tuned after the fact.
"""

import time

import numpy as np

from qdeny import dcqke, denial, distill, gf2, qcore, ue
from qdeny.bb84 import Bb84Config, extract_key, run_session
from qdeny.channel import QubitChannel, TimeBinChannel, count_distributions, max_covert_slots, warden_bias_exact
from qdeny.cli import main
from qdeny.qcore import BellKind
from qdeny.rng import RandomStream
from test_qcore import von_neumann_entropy


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_detection_rate_benchmark():
    t0 = time.time()
    est = denial.detection_probability(512, 32, 1, 200_000, master_seed=0xC1)
    elapsed = time.time() - t0
    target = 32 / 1024
    ok = abs(est.rate - target) <= 0.003 and elapsed < 60
    report(1, "denial detection rate reproduces eta/(2N) = 0.03125 +- 0.003", ok,
           f"estimate {est.rate:.5f}, {elapsed:.1f}s")


def test_criterion_2_exact_oracle_matches_monte_carlo():
    grid = [(16, eta, flips) for eta in (2, 4, 6, 8, 12) for flips in (1, 2)]
    assert len(grid) == 10
    worst = 0.0
    ok = True
    for n, eta, flips in grid:
        exact = denial.exact_detection_probability(n, eta, flips)
        est = denial.detection_probability(n, eta, flips, 40_000, master_seed=0xC2)
        sigma = np.sqrt(exact * (1 - exact) / est.trials)
        pulls = abs(est.rate - exact) / sigma
        worst = max(worst, pulls)
        ok = ok and pulls <= 3.0
    report(2, "exhaustive detection oracle matches Monte Carlo on 10-point grid", ok,
           f"worst deviation {worst:.2f} sigma")


def test_criterion_3_bb84_correctness():
    config = Bb84Config(n=14, delta=0.5)
    noiseless = QubitChannel(0.0)
    root = RandomStream(0xC3)
    agree = 0
    zero_error = 0
    for i in range(1000):
        out = run_session(config, noiseless, root.substream("s", i))
        agree += int(out.keys_agree)
        zero_error += int(out.session.estimated_error == 0.0)
    clean = agree == 1000 and zero_error == 1000

    # one flipped bit per block, every position, against live sessions
    pair = config.codes
    flips_ok = True
    for pos in range(7):
        out = run_session(config, noiseless, root.substream("flip", pos))
        s = out.session
        v_alice = s.a[s.payload_positions]
        v_bob = s.a_prime[s.payload_positions].copy()
        for blk in range(config.blocks):
            v_bob[blk * 7 + pos] ^= 1
        k_a, k_b = extract_key(pair, v_alice, v_bob, s.u)
        flips_ok = flips_ok and np.array_equal(k_a, k_b)
    report(3, "BB84: 1000 clean sessions agree, single flip per block corrected",
           clean and flips_ok)


def test_criterion_4_ue_algebra():
    params = ue.UeParams(n=4, s=4)
    root = RandomStream(0xC4)
    round_trips = 0
    replays = 0
    for i in range(1000):
        r = root.substream("case", i)
        key = ue.generate_ue_key(params, r.substream("key"))
        m = r.substream("m").bits(4)
        states = ue.ue_encrypt(params, key, m, r.substream("enc"))
        out = ue.ue_decrypt(params, key, states, r.substream("dec"))
        round_trips += int(out.accepted and np.array_equal(out.message, m))
        m_fake = r.substream("mf").bits(4)
        fake_key = ue.ue_fake(params, key, m, m_fake, r.substream("fake"))
        replays += int(ue.fake_opens_consistently(params, fake_key, m_fake, out.measured))

    exhaustive = True
    key = ue.generate_ue_key(params, root.substream("exhaustive-key"))
    for m_val in range(16):
        m = gf2.bits(format(m_val, "04b"))
        states = ue.ue_encrypt(params, key, m, root.substream("e-enc", m_val))
        for f_val in range(16):
            m_fake = gf2.bits(format(f_val, "04b"))
            fk = ue.ue_fake(params, key, m, m_fake, root.substream("e-f", 16 * m_val + f_val))
            out = ue.ue_decrypt(params, fk, states, root.substream("e-d", 16 * m_val + f_val))
            exhaustive = exhaustive and out.accepted and np.array_equal(out.message, m_fake)
    ok = round_trips == 1000 and replays == 1000 and exhaustive
    report(4, "UE round trip 1000/1000, fake pad accepted 1000/1000, exhaustive fakes", ok,
           f"round trips {round_trips}, replays {replays}")


def test_criterion_5_covert_bias_grid():
    grid = [
        (256, 0.05, 0.2, 8), (256, 0.05, 0.2, 16), (256, 0.01, 0.5, 4),
        (512, 0.05, 0.1, 16), (512, 0.1, 0.3, 8), (1024, 0.01, 0.05, 32),
        (1024, 0.05, 0.08, 64), (2048, 0.02, 0.06, 32), (2048, 0.1, 0.15, 64),
        (4096, 0.05, 0.08, 128), (4096, 0.01, 0.5, 10), (1024, 0.1, 0.1, 32),
    ]
    assert len(grid) == 12
    trials = 100_000
    worst = 0.0
    ok = True
    for idx, (n_slots, p_dark, p_signal, n_used) in enumerate(grid):
        tb = TimeBinChannel(n_slots, p_dark, p_signal)
        exact = warden_bias_exact(tb, n_used)
        if p_dark == p_signal:
            ok = ok and exact == 0.0  # exactly zero, not just small
        idle_pmf, active_pmf = count_distributions(tb, n_used)
        g = RandomStream(0xC5).substream("grid", idx).generator
        b = g.integers(0, 2, trials)
        counts = np.where(
            b == 0,
            g.binomial(n_slots - n_used, p_dark, trials) + g.binomial(n_used, p_signal, trials),
            g.binomial(n_slots, p_dark, trials),
        )
        guesses = np.where(active_pmf[counts] > idle_pmf[counts], 0, 1)
        advantage = abs(np.mean(guesses == b) - 0.5)
        sigma = np.sqrt(0.25 / trials)
        pulls = abs(advantage - exact) / sigma
        worst = max(worst, pulls)
        ok = ok and pulls <= 3.0
    report(5, "warden Monte Carlo matches exact bias on 12-point grid", ok,
           f"worst deviation {worst:.2f} sigma")


def test_criterion_6_square_root_law():
    t0 = time.time()
    p_dark, p_signal, eps_target = 0.05, 0.10, 0.1
    slot_counts = [1 << k for k in range(8, 15)]
    capacities = [
        max_covert_slots(TimeBinChannel(n, p_dark, p_signal), eps_target)
        for n in slot_counts
    ]
    slope = float(np.polyfit(np.log(slot_counts), np.log(capacities), 1)[0])
    elapsed = time.time() - t0
    ok = 0.4 <= slope <= 0.6 and elapsed < 600
    report(6, "square-root law: log-log capacity slope is 0.5 +- 0.1", ok,
           f"slope {slope:.4f}, capacities {capacities}, {elapsed:.1f}s")


def test_criterion_7_reduction_inequality_grid():
    bb = Bb84Config(n=7, delta=0.5)
    strong = dcqke.PrngSpec("strong")
    weak = dcqke.PrngSpec("weak")
    configs = [
        ("strong-a", dcqke.CovertQkeConfig(bb, TimeBinChannel(4096, 0.05, 0.08), strong), "count", 2000),
        ("strong-b", dcqke.CovertQkeConfig(bb, TimeBinChannel(8192, 0.05, 0.08), strong), "count", 2000),
        ("null", dcqke.CovertQkeConfig(bb, TimeBinChannel(4096, 0.1, 0.1), strong), "count", 1000),
        ("weak", dcqke.CovertQkeConfig(bb, TimeBinChannel(16384, 0.3, 0.95), weak), "seed-search", 150),
    ]
    ok = True
    details = []
    for name, config, warden_kind, trials in configs:
        if warden_kind == "count":
            den_warden = dcqke.CountTestWarden(config)
            cov_warden = dcqke.CountTestWarden(config)
        else:
            den_warden = dcqke.SeedSearchWarden(config)
            cov_warden = dcqke.SeedSearchWarden(config)
        den = dcqke.deniability_experiment(config, den_warden, trials, master_seed=0xC7)
        cov = dcqke.covert_game(config, trials, master_seed=0xC7, warden=cov_warden)
        sigma = np.sqrt(den.std_error**2 + cov.std_error**2)
        ok = ok and den.advantage <= cov.advantage + 2 * sigma
        if name.startswith("strong"):
            exact = warden_bias_exact(config.timebin, config.effective_n_used)
            ok = ok and den.ci_low <= exact <= den.ci_high
            ok = ok and cov.ci_low <= exact <= cov.ci_high
            details.append(f"{name}: den {den.advantage:.3f} cov {cov.advantage:.3f} exact {exact:.3f}")
        elif name == "weak":
            ok = ok and den.advantage >= 0.45 and cov.advantage >= 0.45
            details.append(f"{name}: den {den.advantage:.3f} cov {cov.advantage:.3f}")
        else:
            ok = ok and den.ci_low == 0.0 and cov.ci_low == 0.0
            details.append(f"{name}: den {den.advantage:.3f} cov {cov.advantage:.3f}")
    report(7, "deniability advantage <= covert advantage + 2 sigma on paired seeds", ok,
           "; ".join(details))


def test_criterion_8_distillation():
    root = RandomStream(0xC8)
    rep = distill.distill_batch(100_000, np.pi / 6, root.substream("batch"))
    rate_ok = abs(rep.rate - 0.5) <= 0.005
    fid_ok = rep.output_fidelity_min >= 1 - 1e-10
    bound_ok = rep.rate <= distill.binary_entropy(0.75) + 3 * np.sqrt(0.25 / 100_000)

    gen = root.substream("teleport-states").generator
    phi_plus = qcore.bell_state(BellKind.PHI_PLUS)
    tp_rng = root.substream("teleport")
    teleport_ok = True
    for _ in range(1000):
        amps = gen.normal(size=2) + 1j * gen.normal(size=2)
        psi = qcore.StateVector(1, amps / np.linalg.norm(amps))
        out, _ = distill.teleport(psi, phi_plus, tp_rng)
        fid = abs(np.vdot(psi.amplitudes, out.amplitudes)) ** 2
        teleport_ok = teleport_ok and fid >= 1 - 1e-10

    ebit = distill._filter_output(np.pi / 6)[0]  # every success is this one state
    decouple_ok = distill.eve_decoupling_check(qcore.tensor(ebit, qcore.basis_state("0")), 0, 1)
    ghz = qcore.StateVector(3, np.concatenate([[1], np.zeros(6), [1]]) / np.sqrt(2))
    decouple_ok = decouple_ok and not distill.eve_decoupling_check(ghz, 0, 1)
    ok = rate_ok and fid_ok and bound_ok and teleport_ok and decouple_ok
    report(8, "distillation rate 0.5 +- 0.005, perfect outputs, teleport exact, decoupling", ok,
           f"rate {rep.rate:.4f}")


def test_criterion_9_numeric_core_invariants():
    gen = RandomStream(0xC9).generator
    rng = RandomStream(0xC91)
    n_instances = 10_000
    ok = True
    for _ in range(n_instances):
        amps = gen.normal(size=4) + 1j * gen.normal(size=4)
        state = qcore.StateVector(2, amps / np.linalg.norm(amps))
        rotated = qcore.apply_unitary(state, qcore.HADAMARD, [int(gen.integers(0, 2))])
        ok = ok and abs(np.linalg.norm(rotated.amplitudes) - 1) < 1e-10
        if not ok:
            break

    weights = gen.random((n_instances, 2))
    for i in range(n_instances):
        w = weights[i] / weights[i].sum()
        v1 = gen.normal(size=4) + 1j * gen.normal(size=4)
        v2 = gen.normal(size=4) + 1j * gen.normal(size=4)
        v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
        mat = w[0] * np.outer(v1, v1.conj()) + w[1] * np.outer(v2, v2.conj())
        rho = qcore.DensityMatrix(2, mat)
        ok = ok and np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-10
        red = qcore.partial_trace(rho, [0])
        ok = ok and abs(np.trace(red.matrix).real - 1) < 1e-10
        psi = qcore.StateVector(2, v1)
        f = qcore.fidelity(psi, rho)
        ok = ok and -1e-10 <= f <= 1 + 1e-10
        ok = ok and abs(qcore.fidelity(psi, qcore.to_density(psi)) - 1) < 1e-10
        single = qcore.DensityMatrix(1, np.diag([w[0], w[1]]))
        joint = qcore.tensor(single, rho)
        additivity = von_neumann_entropy(joint) - (
            von_neumann_entropy(single) + von_neumann_entropy(rho)
        )
        ok = ok and abs(additivity) < 1e-10
        if not ok:
            break
    report(9, "numeric core invariant suites at 1e-10 over 10^4 instances", ok)


def test_criterion_10_cli_determinism(tmp_path):
    seed = "0000000000000000000000000000c10a"
    outputs = []
    for rep in range(2):
        paths = []
        for name, extra in (
            ("attack-deny", ["--trials", "3000"]),
            ("distill", ["--trials", "4000", "--format", "json"]),
            ("covert", ["--trials", "300"]),
        ):
            out = tmp_path / f"{name}-{rep}.out"
            code = main([name, "--seed", seed, *extra, "--out", str(out)])
            assert code == 0
            paths.append(out.read_bytes())
        outputs.append(paths)
    ok = all(a == b for a, b in zip(outputs[0], outputs[1]))
    report(10, "CLI reruns with one seed are byte-identical", ok)
