"""Golden-output test: SHA-256 hashes of fixed-seed outputs.

Each case below produces bytes (a CLI CSV, a skeleton array or the
validation report) from fixed seeds and compares their SHA-256 hash with
a recorded value.  A refactor of the samplers must leave every hash
unchanged; a hash that moves means some draw changed, even in its last
bit.  The cases cover both processes on the tilting route (alpha 0.5),
the gamma special cases (alpha 0), the double-rejection route (alpha 0.9
at coarse steps, including an OU-CTS step with 16 chords and about 14
jumps), both approximate methods and the validation report, whose
acceptance values come from the proposal counter of the envelope
sampler.

The ``cts-dr-*`` cases pin Devroye's double-rejection kernel on its own:
10^4 draws of ``cts_kernel(..., "double-rejection")`` at alpha
0.3, 0.5, 0.7 and 0.9, each at one tilt with gamma = lam^alpha *
alpha * (1 - alpha) below 1 and one above, so both proposal mixtures of
the first stage run, followed by the next 16 uniforms of the same
stream, so how many draws each round consumes is pinned too.

The ``cts-nfold-alpha0.5`` case pins ``sample_cts``'s n-fold
tilting: 10^4 ``sample_cts`` draws of the CTS part of the OU-CTS alpha
0.5, b dt = 3 step (tilting acceptance 0.097, two summands), and
``cts-tilting-alpha0.5`` pins the single-summand tilting kernel on the
same law with ``cts_kernel(..., "tilting")``; each is followed by the
next 16 uniforms of the same stream.  ``cts_kernel`` (in ``_helpers``)
calls one kernel with the arithmetic ``sample_cts`` uses on its route.

The ``chunked-*`` cases pin stages that draw or compute in blocks of
8192 elements by drawing far more than one block in one call: one
2**14-path OU-CTS step at alpha 0.9, b dt = 3 (about 230 000 jumps), one
2**14-path CTS-OU step at alpha 0.9, dt = 30/365 (about 98 000 jumps),
one ``sample_w`` call of 3 * 8192 + 17 draws and one 2**14-path OU-CTS
step at alpha 0, whose CTS part is a gamma law of shape 0.24.  Each is followed by
the next 16 uniforms of the same stream, as in the ``cts-dr-*`` cases.

The ``cumulants-scaled-bdlp`` case draws the decayed driving increment
through the plain step law ``a*x0 + CTS(alpha, beta/a, c a^alpha dt/T)``,
which CTS scaling makes equal in law to ``a * (x0 + L(dt))``; the two
forms agree to about 1e-14 relative but not bit for bit, and the hash
pins the first.

The cumulant CSV hashes also pin the estimator's arithmetic: how the
central moments are formed decides the last bits of the estimates and
their standard errors.  The ``validate-report`` hash pins the proposal
counts of the envelope draws on stream 901.

The ``estimate-cumulants`` case pins the estimator on its own:
``float.hex`` of k1..k4 and se1..se4 for 10^6 shifted exponentials in
100 batches and for 2**18 + 37 gamma(0.5) values in 7 batches, where
the sample is truncated to a multiple of the batch count and the rows
are not a whole number of 8192-element blocks.

The ``levy-core-quadrature`` case pins the Levy-Khintchine quadrature
oracle bit for bit: ``float.hex`` of ``lk_log_chf`` on the gamma and
CTS(0.5, 1.4, 0.8) remainder triplets (the values the validation report
prints to four digits only), their remainder drifts, the compound-Poisson
rate of a general-tempering decomposition and the stationary density
from a driving density, one-sided and two-sided.

The hashes assume numpy 2.4.6, which every failure message names beside
the running version: they pin its Philox bit stream and the
ziggurat normal, exponential and gamma generators built on it.  Another
numpy version may legitimately produce different bytes.
"""

import hashlib

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from _helpers import cts_kernel, levy_core_oracle_values
from tsousim.cli import main
from tsousim.cts_ou import CtsOuProcess, simulate_skeleton_ctsou, step_law
from tsousim.harness import estimate_cumulants
from tsousim.ou_cts import OuCtsProcess, sample_w, simulate_skeleton_oucts, step_law_oucts
from tsousim.rand_core import CtsParams, RngStream, sample_cts

PARAMS = ["--beta", "1.4", "--c", "0.8", "--b", "10", "--x0", "0"]
DAY = repr(1.0 / 365.0)
MONTH = repr(30.0 / 365.0)


def _cli_csv(tmp_path, command, process, alpha, dt, steps, paths, seed, *extra):
    out = tmp_path / "out.csv"
    argv = [
        command, "--process", process, "--alpha", alpha, *PARAMS, "--dt", dt,
        "--steps", str(steps), "--paths", str(paths), "--seed", str(seed),
        "--out", str(out), *extra,
    ]
    assert main(argv) == 0
    return out.read_bytes()


def _simulate(process, alpha, dt, steps, paths, seed):
    return lambda tmp_path: _cli_csv(tmp_path, "simulate", process, alpha, dt, steps, paths, seed)


def _cumulants(method, alpha, seed):
    return lambda tmp_path: _cli_csv(
        tmp_path, "cumulants", "ou-cts", alpha, MONTH, 3, 4000, seed,
        "--method", method, "--batches", "20",
    )


def _skeleton(kind, size):
    def run(tmp_path):
        params = CtsParams(0.5, 1.4, 0.8)
        grid = [i / 365 for i in range(1, 366)]
        if kind == "cts-ou":
            out = simulate_skeleton_ctsou(CtsOuProcess(params, 10.0), 0.0, grid, RngStream(42, 0), size)
        else:
            out = simulate_skeleton_oucts(OuCtsProcess(params, 10.0), 0.0, grid, RngStream(42, 0), size)
        return np.ascontiguousarray(out, dtype=np.float64).tobytes()

    return run


def _cts_dr(alpha, c, seed, heavy):
    def run(tmp_path):
        params = CtsParams(alpha, 1.4, c)
        # Devroye's gamma = lam^alpha * alpha * (1 - alpha), with lam = beta * sigma
        gamma_ = params.beta**alpha * c * gamma_fn(1.0 - alpha) * (1.0 - alpha)
        assert (gamma_ >= 1.0) == heavy
        stream = RngStream(seed, 3)
        x = cts_kernel(params, stream, 10**4, "double-rejection")
        return np.concatenate([x, stream.gen.random(16)]).tobytes()

    return run


def _cts_oucts_wide(route, seed):
    def run(tmp_path):
        params = step_law_oucts(OuCtsProcess(CtsParams(0.5, 1.4, 0.8), 10.0), 0.3).x1_params
        assert params._summands == 2
        stream = RngStream(seed, 3)
        if route is None:  # the law's own route: two tilted summands
            x = sample_cts(params, stream, size=10**4)
        else:
            x = cts_kernel(params, stream, 10**4, route)
        return np.concatenate([x, stream.gen.random(16)]).tobytes()

    return run


def _chunked(kind, seed):
    def run(tmp_path):
        params = CtsParams(0.0 if kind == "oucts-alpha0-step" else 0.9, 1.4, 0.8)
        stream = RngStream(seed, 5)
        if kind == "ctsou-step":
            x = step_law(CtsOuProcess(params, 10.0), 30.0 / 365.0).sample(0.5, stream, 1 << 14)
        elif kind in ("oucts-step", "oucts-alpha0-step"):
            x = step_law_oucts(OuCtsProcess(params, 10.0), 0.3).sample(0.5, stream, 1 << 14)
        else:
            law = step_law_oucts(OuCtsProcess(params, 10.0), 0.3)
            x, _ = sample_w(law.envelope, law.a, 0.9, stream, 3 * 8192 + 17)
        return np.concatenate([x, stream.gen.random(16)]).tobytes()

    return run


def _validate(tmp_path):
    out = tmp_path / "report.txt"
    assert main(["validate", "--out", str(out)]) == 0
    return out.read_bytes()


def _estimate_cumulants(tmp_path):
    gen = RngStream(44, 6).gen
    samples = [(gen.standard_exponential(10**6) - 1.0, 100), (gen.standard_gamma(0.5, 2**18 + 37), 7)]
    values = []
    for x, batches in samples:
        cv = estimate_cumulants(x, batches)
        values += [cv.k(k) for k in (1, 2, 3, 4)] + [cv.se(k) for k in (1, 2, 3, 4)]
    return "\n".join(float(v).hex() for v in values).encode()


def _levy_core_quadrature(tmp_path):
    return "\n".join(float(v).hex() for v in levy_core_oracle_values()).encode()


CASES = {
    "simulate-ctsou-alpha0.5-day": (
        _simulate("cts-ou", "0.5", DAY, 30, 8, 11),
        "23ba696b46776f3bbec9ff861c62ad6bf1905434ece21a4ea8f74e946b2dbc68",
    ),
    "simulate-ctsou-alpha0-day": (
        _simulate("cts-ou", "0", DAY, 30, 8, 12),
        "d23a7554b0b129f930b92deabec2191b0d4fda4c16d034b854672cd941476640",
    ),
    "simulate-oucts-alpha0.5-day": (
        _simulate("ou-cts", "0.5", DAY, 30, 8, 13),
        "e56f6bbbab17682d2c1ab189d2aa3b3c9f41040c15ba4976f79e3f357ab1fe5b",
    ),
    "simulate-oucts-alpha0-day": (
        _simulate("ou-cts", "0", DAY, 30, 8, 14),
        "94def41247856447e198ef15b9c86cadaf7054830a5c5b40eeed127fc5e947a9",
    ),
    "simulate-ctsou-alpha0.9-month": (
        _simulate("cts-ou", "0.9", MONTH, 12, 64, 15),
        "eaa61fcba39ae5bc19596c2e1be32adb869323fd192453e2c43328b1da6318d8",
    ),
    "simulate-oucts-alpha0.9-wide": (
        _simulate("ou-cts", "0.9", "0.3", 10, 64, 16),
        "2acf4addb931d156d2690e1652902f5f1da6a1b5e16b6a83f22630938bec487c",
    ),
    "cumulants-x1-only": (
        _cumulants("x1-only", "0.5", 17),
        "0fe877540d397c0fd3f0946c7390cb53d1cc0d17cc1b4e95fd2da00f712154a1",
    ),
    "cumulants-scaled-bdlp": (
        _cumulants("scaled-bdlp", "0.5", 18),
        "05222b3e43d9d50221f35521077b5a7bcd0d23640e468c110580773dc7f862e6",
    ),
    "skeleton-ctsou": (
        _skeleton("cts-ou", 1),
        "45051141597b7cb4ee5d6ae3f19160fd56f80e6f5b0e9bea9c099655a13e9b94",
    ),
    "skeleton-oucts": (
        _skeleton("ou-cts", 4),
        "a0c06d44fddf95bfd6239fd235792cd13603a80bd5d5cd9b23b1b01284d9fcf7",
    ),
    "cts-dr-alpha0.3-light": (
        _cts_dr(0.3, 0.5, 30, heavy=False),
        "c8c9424707300ecb5d867811d21cf60baa862676e0a296e023f74243436071f3",
    ),
    "cts-dr-alpha0.3-heavy": (
        _cts_dr(0.3, 3.0, 31, heavy=True),
        "14e971c8b927bd9a6c10729ba21eb38e94e264ad0e5c473cb9456483fa3790a4",
    ),
    "cts-dr-alpha0.5-light": (
        _cts_dr(0.5, 0.5, 32, heavy=False),
        "61a6737bdc37841402c0cd52a778f6125a77a13c90b39a9477edabb11837386f",
    ),
    "cts-dr-alpha0.5-heavy": (
        _cts_dr(0.5, 3.0, 33, heavy=True),
        "5340b3cf13d8db3070065eb3eb57a85172ca6cd537acf680d898abd69f155298",
    ),
    "cts-dr-alpha0.7-light": (
        _cts_dr(0.7, 0.5, 34, heavy=False),
        "df9a6ed103775001e23fda2f125ccb77134cc8878802551229f489eeaf8d8b54",
    ),
    "cts-dr-alpha0.7-heavy": (
        _cts_dr(0.7, 3.0, 35, heavy=True),
        "b12372024316af5256c1737c237f5adffdd8ee0fe403f1e0d775ef152822cf2d",
    ),
    "cts-dr-alpha0.9-light": (
        _cts_dr(0.9, 0.5, 36, heavy=False),
        "5d3dca5359724d86a705a818ca59a6701be6771865ee2d970f7f121337149f9d",
    ),
    "cts-dr-alpha0.9-heavy": (
        _cts_dr(0.9, 3.0, 37, heavy=True),
        "f9738eecf4bd4fed6a31237b0fc9e250c9d4d425b55c95403716c94bd29ab7e7",
    ),
    "cts-nfold-alpha0.5": (
        _cts_oucts_wide(None, 38),
        "79987f8415b5d35ca5abf2205783d1f73bdcc7800105a33d4827c425cdc6b0ed",
    ),
    "cts-tilting-alpha0.5": (
        _cts_oucts_wide("tilting", 39),
        "ee76b3023b7ebf991f74532c8744594ee88fa6c5320367fb9f56d18ae67795a8",
    ),
    "chunked-ctsou-step": (
        _chunked("ctsou-step", 40),
        "24a7acf0f34d4db9e2a0e5c7123191f4a9a94d4276e054700dc98eed333c48c1",
    ),
    "chunked-oucts-step": (
        _chunked("oucts-step", 41),
        "db26c75bf7e455a022b939101e2de22e49bc3277ac7e184646fcc63827d6d21b",
    ),
    "chunked-sample-w": (
        _chunked("w", 42),
        "af95d5f9c01ce5b01f42dd250c0aade6bb0457ce8e79458a905822c7977cb2d5",
    ),
    "chunked-oucts-alpha0-step": (
        _chunked("oucts-alpha0-step", 43),
        "62e15c3b685af75f2e422979039f3a834629865463172039b722756cc6b55ef8",
    ),
    "estimate-cumulants": (
        _estimate_cumulants,
        "c5afd59327d370cb4ba8986584ee9c207a6a472a10f0813dd4995d5f850d4e4c",
    ),
    "levy-core-quadrature": (
        _levy_core_quadrature,
        "45c3f79ed2b819b2037ee6d0468bd25ea42513702e0b6be19c98f6c9c38d3ac2",
    ),
    "validate-report": (
        _validate,
        "c666ccd03a3766f12f2294f51eb64abaca57a695a2113e8aae09858fd510654e",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hash(name, tmp_path):
    produce, want = CASES[name]
    got = hashlib.sha256(produce(tmp_path)).hexdigest()
    assert got == want, (
        f"{name}: output bytes changed (sha256 {got}) on numpy {np.__version__}; "
        "the hashes were recorded on numpy 2.4.6, and another numpy "
        "version may legitimately draw other bytes"
    )
