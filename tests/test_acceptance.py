"""Acceptance gate: one check per shipped criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line for every criterion even when everything is green.
"""

import math
import time

import numpy as np

import flowseg.cli as cli
import flowseg.data as fd
import flowseg.diffcore as dc
import flowseg.flows as fl
import flowseg.ncvi as nc
import flowseg.pipeline as pl
import flowseg.sde as sd
import flowseg.spatial as sp
from flowseg.diffcore import Tensor


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _randomize_flow(stack: fl.FlowStack, rng: np.random.Generator,
                    scale: float = 0.1) -> None:
    for layer in stack.layers:
        layer.w2.assign(rng.normal(size=layer.w2.shape) * scale)
        layer.b2.assign(rng.normal(size=layer.b2.shape) * scale)


# -- 1: flow correctness -------------------------------------------------------------


def test_criterion_01_flows():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_rt = 0.0
    worst_jac = 0.0
    for dim in (2, 4, 8):
        stack = fl.FlowStack.create(dim, n_maf=4, rng=rng)
        _randomize_flow(stack, rng)
        u = rng.normal(size=(100, dim))
        z, logdet = fl.flow_push(stack, u)
        u_back, _ = fl.flow_inverse(stack, z)
        worst_rt = max(worst_rt, np.abs(u_back.data - u).max())
        # log-determinant vs a central-difference Jacobian, every input
        eps = 1e-6
        for i in range(100):
            jac = np.zeros((dim, dim))
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = eps
                hi, _ = fl.flow_push(stack, (u[i] + e).reshape(1, -1))
                lo, _ = fl.flow_push(stack, (u[i] - e).reshape(1, -1))
                jac[:, j] = (hi.data - lo.data).ravel() / (2 * eps)
            ld_num = math.log(abs(np.linalg.det(jac)))
            rel = abs(logdet.data[i] - ld_num) / max(abs(ld_num), 1.0)
            worst_jac = max(worst_jac, rel)

    # density quadrature in 1 and 2 dimensions
    quad_errs = []
    stack1 = fl.FlowStack.create(1, n_maf=4, rng=rng)
    _randomize_flow(stack1, rng, scale=0.4)
    xs = np.linspace(-10.0, 10.0, 4001)
    logq = fl.flow_log_density(stack1, xs.reshape(-1, 1))
    quad_errs.append(abs(np.trapezoid(np.exp(logq.data), xs) - 1.0))

    stack2 = fl.FlowStack.create(2, n_maf=4, rng=rng)
    _randomize_flow(stack2, rng, scale=0.1)
    z2, _ = fl.flow_sample(stack2, 2000, rng)
    lo = z2.data.min() - 6.0 * z2.data.std()
    hi = z2.data.max() + 6.0 * z2.data.std()
    grid = np.linspace(lo, hi, 641)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    q = np.exp(fl.flow_log_density(stack2, pts).data).reshape(641, 641)
    quad_errs.append(abs(np.trapezoid(np.trapezoid(q, grid, axis=1), grid) - 1.0))

    dt = time.perf_counter() - t0
    ok = (worst_rt < 1e-6 and worst_jac < 1e-3
          and all(e < 1e-2 for e in quad_errs) and dt < 30.0)
    _report(1, "flow correctness", ok,
            f"round-trip {worst_rt:.2e}, jacobian rel {worst_jac:.2e}, "
            f"quadrature errs {quad_errs[0]:.2e}/{quad_errs[1]:.2e}, {dt:.1f}s")


# -- 2: Girsanov martingale ----------------------------------------------------------


def test_criterion_02_martingale():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    n_paths = 100_000
    details = []
    ok = True
    for sigma, horizon, n_steps in ((1.0, 1.0, 8), (0.5, 1.0, 64)):
        params = sd.OuParams(mu=Tensor(np.full(n_paths, 0.7)),
                             sigma=Tensor(np.full(n_paths, sigma)),
                             horizon=horizon, n_steps=n_steps)
        _, log_w = sd.euler_maruyama(params, Tensor(np.zeros(n_paths)), rng,
                                     drifted=False)
        w = np.exp(log_w)
        se = w.std(ddof=1) / math.sqrt(n_paths)
        dev = abs(w.mean() - 1.0)
        ok = ok and dev <= 3.0 * se
        details.append(f"(s={sigma},n={n_steps}): |E[w]-1|={dev:.2e} vs 3SE={3*se:.2e}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _report(2, "Girsanov martingale", ok, "; ".join(details) + f", {dt:.1f}s")


# -- 3: OU moments -------------------------------------------------------------------


def _discrete_moments(mu, sigma, z0, horizon, n_steps):
    dt = horizon / n_steps
    mean = mu + (z0 - mu) * (1.0 - dt) ** n_steps
    var = sigma * sigma * (1.0 - (1.0 - dt) ** (2 * n_steps)) / (2.0 - dt)
    return mean, var


def test_criterion_03_ou_moments():
    # The continuous-time formulas are only the n -> inf limit; on the
    # model's own 8-step grid the discretization bias exceeds 3 SE by
    # construction, so the empirical check runs against the exact
    # discrete-recursion moments at n=8 and against the continuous formulas
    # once the grid is fine enough (n=512).  The vanishing-bias clause is
    # checked deterministically across three grid halvings.
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    mu, sigma, z0v, horizon = 0.5, 1.2, 2.0, 1.0
    n_paths = 100_000
    ok = True
    details = []
    for n_steps, against in ((8, "discrete"), (512, "continuous")):
        params = sd.OuParams(mu=Tensor(np.full(n_paths, mu)),
                             sigma=Tensor(np.full(n_paths, sigma)),
                             horizon=horizon, n_steps=n_steps)
        term = sd.euler_maruyama(params, Tensor(np.full(n_paths, z0v)), rng)[0].data
        emp_mean, emp_var = term.mean(), term.var(ddof=1)
        se_mean = term.std(ddof=1) / math.sqrt(n_paths)
        se_var = emp_var * math.sqrt(2.0 / (n_paths - 1))
        if against == "discrete":
            ref_mean, ref_var = _discrete_moments(mu, sigma, z0v, horizon, n_steps)
        else:
            ref = sd.ou_analytic_moments(params, np.full(n_paths, z0v), horizon)
            ref_mean, ref_var = ref[0][0], ref[1][0]
        mean_ok = abs(emp_mean - ref_mean) <= 3.0 * se_mean
        var_ok = abs(emp_var - ref_var) <= 3.0 * se_var
        ok = ok and mean_ok and var_ok
        details.append(f"n={n_steps} vs {against}: "
                       f"d_mean={abs(emp_mean - ref_mean):.2e} (3SE {3*se_mean:.2e}), "
                       f"d_var={abs(emp_var - ref_var):.2e} (3SE {3*se_var:.2e})")

    cont_mean = mu + (z0v - mu) * math.exp(-horizon)
    cont_var = sigma * sigma * (1.0 - math.exp(-2.0 * horizon)) / 2.0
    biases = []
    for n_steps in (8, 16, 32, 64):
        d_mean, d_var = _discrete_moments(mu, sigma, z0v, horizon, n_steps)
        biases.append(abs(d_mean - cont_mean) + abs(d_var - cont_var))
    shrinks = all(b1 > b2 for b1, b2 in zip(biases, biases[1:]))
    ok = ok and shrinks
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _report(3, "OU moments", ok,
            "; ".join(details)
            + f"; bias over 3 halvings {['%.1e' % b for b in biases]}, {dt:.1f}s")


# -- 4: MC-KL calibration ------------------------------------------------------------


def test_criterion_04_mc_kl():
    rng = np.random.default_rng(404)
    n = 100_000

    # identity flow: per-sample KL integrand is identically zero
    ident = fl.FlowStack.create(2, n_maf=4, rng=rng)
    z, logq = fl.flow_sample(ident, n, rng)
    logp = -0.5 * (z.data ** 2).sum(axis=1) - z.data.shape[1] * 0.5 * math.log(2 * math.pi)
    kl_i = logq.data - logp
    se_ident = kl_i.std(ddof=1) / math.sqrt(n)
    ident_mean = kl_i.mean()
    ident_ok = abs(ident_mean) <= 3.0 * se_ident + 1e-15
    ident_mc = nc.mc_kl(ident, n, rng).data.item()

    # unit-shift affine flow in 1D: KL[N(1,1) || N(0,1)] = 0.5
    shift = fl.FlowStack([fl.MafLayer(1, rng=np.random.default_rng(0))], dim=1)
    b2 = np.zeros(2)
    b2[0] = 1.0
    shift.layers[0].b2.assign(b2)
    z, logq = fl.flow_sample(shift, n, rng)
    logp = -0.5 * (z.data ** 2).sum(axis=1) - 0.5 * math.log(2 * math.pi)
    kl_i = logq.data - logp
    se = kl_i.std(ddof=1) / math.sqrt(n)
    shift_dev = abs(kl_i.mean() - 0.5)
    shift_ok = shift_dev <= 3.0 * se
    mc_val = nc.mc_kl(shift, n, rng).data.item()
    mc_ok = abs(mc_val - 0.5) <= 3.0 / math.sqrt(n)

    ok = ident_ok and abs(ident_mc) < 1e-12 and shift_ok and mc_ok
    _report(4, "MC-KL calibration", ok,
            f"identity mean {ident_mean:.1e} (mc {ident_mc:.1e}); "
            f"unit shift dev {shift_dev:.2e} vs 3SE {3*se:.2e}, mc {mc_val:.4f}")


# -- 5: closed-form update ledger ----------------------------------------------------


def test_criterion_05_update_oracles():
    hp = nc.Hyperpriors()
    rng = np.random.default_rng(505)
    b, k, h, w = 1, 2, 8, 8
    r = rng.normal(size=(b, 1, h, w))
    mu_z = rng.uniform(0.05, 1.0, size=(b, k, h, w))
    mu_z /= mu_z.sum(axis=1, keepdims=True)
    gx = rng.uniform(0.0, 2.0, size=(b, 1, h, w))
    gz = rng.uniform(0.0, 2.0, size=(b, k, h, w))
    sx = rng.uniform(0.1, 1.0, size=(b, 1, h, w))
    sz = rng.uniform(0.1, 1.0, size=(b, k, h, w))
    mu_m = rng.normal(size=(b, 1, h, w))
    sm = rng.uniform(0.1, 1.0, size=(b, 1, h, w))

    worst = 0.0

    rho = nc.update_mu_rho(r, hp)
    for idx in np.ndindex(r.shape):
        want = (2 * hp.gamma_rho + 1) / (r[idx] ** 2 + 2 * hp.phi_rho)
        worst = max(worst, abs(rho[idx] - want))

    ups = nc.update_mu_upsilon(mu_z, gx, sx, hp)
    for bi in range(b):
        for i in range(h):
            for j in range(w):
                den = sum(mu_z[bi, c, i, j]
                          * (gx[bi, 0, i, j] + 2 * sx[bi, 0, i, j] ** 2)
                          for c in range(k))
                want = (2 * hp.gamma_upsilon + k) / (den + 2 * hp.phi_upsilon)
                worst = max(worst, abs(ups[bi, 0, i, j] - want))

    pi = nc.update_pi(mu_z)
    for bi in range(b):
        for c in range(k):
            want = mu_z[bi, c].sum() / (h * w)
            worst = max(worst, abs(pi[bi, c] - want))

    omg = nc.update_mu_omega(pi, gz, sz, hp)
    for bi in range(b):
        for c in range(k):
            for i in range(h):
                for j in range(w):
                    den = (pi[bi, c]
                           * (gz[bi, c, i, j] + 2 * sz[bi, c, i, j] ** 2)
                           + 2 * hp.phi_omega)
                    want = (2 * hp.gamma_omega + 1) / den
                    worst = max(worst, abs(omg[bi, c, i, j] - want))

    import mpmath

    alpha, beta = nc.update_beta_prior(omg, gz, sz, hp)
    psi = nc.psi_term(alpha, beta)
    for bi in range(b):
        for c in range(k):
            energy = sum(omg[bi, c, i, j]
                         * (gz[bi, c, i, j] + 2 * sz[bi, c, i, j] ** 2)
                         for i in range(h) for j in range(w))
            worst = max(worst, abs(beta[bi, c] - (hp.beta_pi + 0.5 * energy)))
            want_psi = float(mpmath.digamma(alpha[bi, c] + beta[bi, c])
                             - mpmath.digamma(beta[bi, c]))
            worst = max(worst, abs(psi[bi, c] - want_psi))

    state = nc.refresh_state(r, mu_z, gx, gz, sx, sz, hp)
    kls = nc.kl_terms(state, Tensor(r), Tensor(gx), Tensor(gz), Tensor(sx),
                      Tensor(sz), Tensor(mu_z), Tensor(mu_m), Tensor(sm), hp)
    kl_y = sum(state.mu_rho[idx] * r[idx] ** 2 for idx in np.ndindex(r.shape))
    kl_z = sum(state.psi[bi, c] * state.mu_omega[bi, c, i, j]
               * (gz[bi, c, i, j] + 2 * sz[bi, c, i, j] ** 2)
               for bi in range(b) for c in range(k)
               for i in range(h) for j in range(w))
    kl_x = sum(mu_z[bi, c, i, j] * state.mu_upsilon[bi, 0, i, j]
               * (gx[bi, 0, i, j] + 2 * sx[bi, 0, i, j] ** 2)
               for bi in range(b) for c in range(k)
               for i in range(h) for j in range(w))
    kl_m = sum(hp.sigma0 * (mu_m[idx] ** 2 + sm[idx] ** 2)
               for idx in np.ndindex(mu_m.shape))
    for got, want in zip(kls, (kl_y, kl_z, kl_x, kl_m)):
        worst = max(worst, abs(got.data.item() - want) / max(abs(want), 1.0))

    # the three arithmetic spot values reproduce exactly
    spot1 = nc.update_mu_rho(np.zeros(1), hp)[0]
    spot2 = nc.update_mu_rho(np.ones(1), nc.Hyperpriors(phi_rho=0.5))[0]
    spot3 = nc.update_mu_upsilon(np.zeros((1, 2, 1, 1)), np.zeros((1, 1, 1, 1)),
                                 np.zeros((1, 1, 1, 1)), hp)[0, 0, 0, 0]
    spots_ok = (spot1 == 5.0 / (2.0 * hp.phi_rho)
                and spot1 == 2.5e6
                and spot2 == 2.5
                and spot3 == 6.0 / (2.0 * hp.phi_upsilon)
                and spot3 == 3e8)

    ok = worst < 1e-9 and spots_ok
    _report(5, "closed-form update ledger", ok,
            f"worst oracle err {worst:.2e}, spot values "
            f"{spot1:.6g}/{spot2:.6g}/{spot3:.6g}")


# -- 6: digamma ----------------------------------------------------------------------


def test_criterion_06_digamma():
    import mpmath

    err1 = abs(nc.digamma(1.0) - float(mpmath.digamma(1)))
    err2 = abs(nc.digamma(2.0) - float(mpmath.digamma(2)))

    xs = np.linspace(0.05, 10.0, 400)
    rec = np.abs(nc.digamma(xs + 1.0) - (nc.digamma(xs) + 1.0 / xs)).max()

    ok = err1 < 1e-9 and err2 < 1e-9 and rec < 1e-10
    _report(6, "digamma", ok,
            f"psi(1) err {err1:.2e}, psi(2) err {err2:.2e}, recurrence {rec:.2e}")


# -- 7: autodiff ---------------------------------------------------------------------


def test_criterion_07_autodiff():
    rng = np.random.default_rng(707)
    a88 = rng.normal(size=(8, 8))
    pos88 = rng.uniform(0.5, 2.0, size=(8, 8))
    m1 = Tensor(rng.normal(size=(8, 8)))
    m2 = Tensor(rng.normal(size=(8, 8)))
    img = rng.normal(size=(1, 1, 8, 8))
    kern = Tensor(rng.normal(size=(2, 1, 3, 3)) * 0.5)

    cases = [
        ("add", lambda t: (t + m1).square().sum(), a88),
        ("sub", lambda t: (t - m1).square().sum(), a88),
        ("mul", lambda t: (t * m1).sum(), a88),
        ("div", lambda t: (Tensor(np.ones((8, 8))) / t).sum(), pos88),
        ("neg", lambda t: (-t * m1).sum(), a88),
        ("exp", lambda t: (t * 0.3).exp().sum(), a88),
        ("log", lambda t: t.log().sum(), pos88),
        ("tanh", lambda t: t.tanh().square().sum(), a88),
        ("square", lambda t: t.square().sum(), a88),
        ("matmul", lambda t: (t @ m1).tanh().sum(), a88),
        ("sum", lambda t: t.sum(axis=1).square().sum(), a88),
        ("mean", lambda t: t.mean(axis=(0, 1)).square().sum(), a88),
        ("max", lambda t: t.max(axis=1).square().sum(), a88),
        ("reshape", lambda t: (t.reshape((4, 16)) * 0.7).square().sum(), a88),
        ("transpose", lambda t: (t.transpose((1, 0)) * m2).sum(), a88),
        ("broadcast", lambda t: (t.reshape((8, 8, 1)).broadcast((8, 8, 3))
                                 * 0.5).square().sum(), a88),
        ("slice", lambda t: t.slice(0, 2, 6).slice(1, 1, 7).square().sum(), a88),
        ("softmax", lambda t: (t.softmax(axis=1) * m1).sum(), a88),
        ("concat", lambda t: dc.concat([t, t * 2.0], axis=0).tanh().sum(), a88),
        ("conv2d", lambda t: dc.conv2d(t, kern).square().sum(), img),
    ]
    worst = 0.0
    worst_name = ""
    for name, fn, x in cases:
        err = dc.grad_check(fn, Tensor(x))
        if err > worst:
            worst, worst_name = err, name

    # full training-mode forward pass of the nf+sde configuration (the
    # detached-coefficient updates are off so finite differences see the
    # same function the tape differentiates); noise is replayed through a
    # fixed seed inside the closure
    cfg = pl.ModelConfig(num_classes=2, image_size=(8, 8), channels=2,
                         flow_layers=1, flow_hidden=4, ncvi=False,
                         sde_steps=4, seed=1)
    model = pl.Model(cfg)
    for layer in model.flow.layers:
        layer.w2.assign(np.random.default_rng(5).normal(
            size=layer.w2.shape) * 0.1)

    def full_forward(images: Tensor) -> Tensor:
        batch = [fd.Sample(images.reshape((8, 8)), np.zeros((8, 8), int))]
        return pl.training_loss(batch, model, np.random.default_rng(11))[0]

    err_input = dc.grad_check(full_forward, Tensor(img))

    stem = model.shape_enc.stem

    def wrt_weight(wl: Tensor) -> Tensor:
        saved = stem.w
        stem.w = wl
        try:
            return full_forward(Tensor(img))
        finally:
            stem.w = saved

    err_weight = dc.grad_check(wrt_weight, Tensor(stem.w.data))

    ok = worst < 1e-4 and err_input < 1e-4 and err_weight < 1e-4
    _report(7, "autodiff", ok,
            f"worst primitive {worst_name} {worst:.2e}; full forward wrt "
            f"input {err_input:.2e}, wrt weight {err_weight:.2e}")


# -- 8: Gumbel-Softmax ---------------------------------------------------------------


def test_criterion_08_gumbel():
    rng = np.random.default_rng(808)
    logits = Tensor(rng.normal(size=(4, 3, 8, 8)))
    y = sp.gumbel_softmax(logits, 1.0, rng)
    simplex_err = np.abs(y.data.sum(axis=1) - 1.0).max()

    n = 100_000
    sym = Tensor(np.zeros((1, 2, 250, 400)))
    draw = sp.gumbel_softmax(sym, 1.0, rng)
    freq = (draw.data.argmax(axis=1) == 0).mean()
    se = 0.5 / math.sqrt(n)
    freq_ok = abs(freq - 0.5) <= 3.0 * se

    cold = sp.gumbel_softmax(Tensor(rng.normal(size=(1, 4, 50, 50))), 0.05, rng)
    concentration = cold.data.max(axis=1).mean()

    ok = simplex_err < 1e-9 and freq_ok and concentration > 0.95
    _report(8, "Gumbel-Softmax", ok,
            f"simplex err {simplex_err:.2e}, symmetric freq {freq:.4f} "
            f"(3SE {3*se:.4f}), low-tau max prob {concentration:.4f}")


# -- 9: toy end-to-end ---------------------------------------------------------------


def test_criterion_09_toy_end_to_end():
    t0 = time.perf_counter()
    train = fd.gen_dataset(fd.DOMAINS["A"], 200)
    val = fd.gen_dataset(fd.DOMAINS["A"], 50, rng=np.random.default_rng(7))
    cfg = pl.ModelConfig(epochs=100, early_stop_dice=0.85)

    _, hist_a = pl.fit(train, val, cfg)
    best = max(r["dice_val"] for r in hist_a)

    _, hist_b = pl.fit(train, val, cfg)
    deterministic = hist_a == hist_b

    dt = time.perf_counter() - t0
    ok = best >= 0.85 and len(hist_a) <= 100 and deterministic and dt < 600.0
    _report(9, "toy end-to-end", ok,
            f"val dice {best:.4f} after {len(hist_a)} epoch(s), "
            f"deterministic={deterministic}, {dt:.1f}s (two runs + data gen)")


# -- 10: ablation harness ------------------------------------------------------------


def test_criterion_10_ablation(tmp_path):
    a = tmp_path / "doma.dbfd"
    c = tmp_path / "domc.dbfd"
    assert cli.main(["gen-data", "--domain", "A", "--n", "200",
                     "--out", str(a)]) == 0
    assert cli.main(["gen-data", "--domain", "C", "--n", "50",
                     "--out", str(c)]) == 0
    out = tmp_path / "ablate"
    code = cli.main(["ablate", "--data", str(a), "--targets", str(c),
                     "--out", str(out), "--set", "epochs=6",
                     "--set", "early_stop_dice=0.85"])
    rows = [line.split(",") for line in
            (out / "ablate.csv").read_text().splitlines()]
    header, body = rows[0], rows[1:]

    shape_ok = (code == 0 and len(body) == 5
                and [r[0] for r in body] == [f"ver{i}" for i in range(1, 6)])
    toggles = [tuple(cell == "true" for cell in r[1:4]) for r in body]
    pattern_ok = toggles == [pl.VERSION_TOGGLES[f"ver{i}"] for i in range(1, 6)]

    i_src = header.index("doma")
    i_tgt = header.index("domc")
    ver1 = body[0]
    drop = float(ver1[i_src]) - float(ver1[i_tgt])
    drop_ok = drop >= 0.05

    ver5 = body[4]
    delta = float(ver5[i_tgt]) - float(ver1[i_tgt])

    ok = shape_ok and pattern_ok and drop_ok
    _report(10, "ablation harness", ok,
            f"5 rows, toggle pattern ok={pattern_ok}, ver1 A->C drop "
            f"{drop:.4f} (>=0.05), ver5-ver1 on target {delta:+.4f} "
            f"(reported, not gated)")


# -- 11: persistence -----------------------------------------------------------------


def test_criterion_11_persistence(tmp_path):
    samples = fd.gen_dataset(fd.DOMAINS["B"], 4, image_size=(32, 32))
    d1 = tmp_path / "a.dbfd"
    d2 = tmp_path / "b.dbfd"
    fd.dataset_save(samples, d1)
    fd.dataset_save(fd.dataset_load(d1), d2)
    dataset_rt = d1.read_bytes() == d2.read_bytes()

    cfg = pl.ModelConfig(image_size=(32, 32), channels=4, flow_layers=1,
                         flow_hidden=8, epochs=1, batch_size=4,
                         flow_kl_samples=8)
    model = pl.Model(cfg)
    opt = pl.Adam(model.named_params(), cfg.learning_rate, cfg.weight_decay)
    pl.train_step(samples, model, opt, np.random.default_rng(0))
    c1 = tmp_path / "a.dbfc"
    c2 = tmp_path / "b.dbfc"
    pl.checkpoint_save(model, c1, opt=opt, epoch=1)
    loaded, opt2, epoch = pl.checkpoint_load(c1)
    pl.checkpoint_save(loaded, c2, opt=opt2, epoch=epoch)
    ckpt_rt = c1.read_bytes() == c2.read_bytes()

    # corrupted and truncated files exit with the I/O code through the CLI
    cut = tmp_path / "cut.dbfd"
    cut.write_bytes(d1.read_bytes()[:30])
    code_cut = cli.main(["inspect", str(cut)])

    flip = bytearray(c1.read_bytes())
    flip[40] ^= 0xFF
    bad = tmp_path / "bad.dbfc"
    bad.write_bytes(bytes(flip))
    code_flip = cli.main(["inspect", str(bad)])

    trunc = tmp_path / "trunc.dbfc"
    trunc.write_bytes(c1.read_bytes()[:100])
    code_trunc = cli.main(["inspect", str(trunc)])

    ok = (dataset_rt and ckpt_rt
          and code_cut == 3 and code_flip == 3 and code_trunc == 3)
    _report(11, "persistence", ok,
            f"dataset round trip {dataset_rt}, checkpoint round trip {ckpt_rt}, "
            f"corrupt/truncated exit codes {code_cut}/{code_flip}/{code_trunc}")
