import hashlib
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from helpers import random_prony, unchecked_prony
from memvisco.kernels import (
    KernelDomainError,
    KernelSum,
    PowerLawKernel,
    PronyKernel,
    check_admissibility,
    check_fading_memory,
    kernel_diff_bound,
    kernel_from_dict,
    translate,
)

prony_strategy = st.builds(
    PronyKernel,
    g_inf=st.floats(0.0, 2.0),
    terms=st.lists(
        st.tuples(st.floats(0.05, 1.0), st.floats(0.1, 4.0)),
        min_size=1,
        max_size=3,
    ).map(tuple),
)

powerlaw_strategy = st.builds(PowerLawKernel, c=st.floats(0.1, 2.0), alpha=st.floats(0.1, 0.9))

fading_kernel_strategy = st.one_of(
    prony_strategy,
    powerlaw_strategy,
    st.tuples(prony_strategy, powerlaw_strategy).map(KernelSum),
)


class TestConstant:
    def test_values(self):
        k = PronyKernel(2.0, ())
        assert k.modulus(0.0) == 2.0
        assert k.modulus_dt(5.0) == 0.0
        assert k.modulus_dtt(1.0) == 0.0
        assert k.integral(3.0) == 6.0
        assert k.integral2(2.0) == 4.0
        assert k.integral3(3.0) == 9.0
        assert k.value_at_inf == 2.0
        assert not k.singular_at_zero

    def test_positive_required(self):
        with pytest.raises(ValueError):
            PronyKernel(0.0, ())
        with pytest.raises(ValueError):
            PronyKernel(-1.0, ())


class TestProny:
    def test_modulus_endpoints(self):
        k = PronyKernel(g_inf=0.5, terms=((0.5, 2.0),))
        assert k.modulus(0.0) == pytest.approx(1.0, abs=1e-15)
        assert k.value_at_inf == 0.5
        assert k.modulus(1e9) == pytest.approx(0.5, abs=1e-12)

    def test_antiderivative_tower_frozen(self):
        # reference values from adaptive quadrature of the modulus
        k = PronyKernel(g_inf=0.5, terms=((0.5, 2.0),))
        assert k.integral(1.0) == pytest.approx(0.8934693402873666, abs=1e-12)
        assert k.integral2(1.0) == pytest.approx(0.46306131942526685, abs=1e-10)
        assert k.integral3(1.0) == pytest.approx(0.15721069448279967, abs=1e-10)
        assert k.integral(2.5) == pytest.approx(1.9634952031398099, abs=1e-12)
        assert k.integral2(2.5) == pytest.approx(2.63550959372038, abs=1e-9)
        assert k.integral3(2.5) == pytest.approx(2.281064145892573, abs=1e-9)

    def test_sign_conditions(self):
        k = PronyKernel(g_inf=0.1, terms=((0.4, 0.5), (0.2, 3.0)))
        t = np.linspace(0.0, 10.0, 200)
        assert np.all(k.modulus(t) > 0)
        assert np.all(k.modulus_dt(t) <= 0)
        assert np.all(k.modulus_dtt(t) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PronyKernel(g_inf=-0.1, terms=((0.5, 1.0),))
        with pytest.raises(ValueError):
            PronyKernel(g_inf=0.5, terms=((0.0, 1.0),))
        with pytest.raises(ValueError):
            PronyKernel(g_inf=0.5, terms=((0.5, -1.0),))
        with pytest.raises(ValueError):
            PronyKernel(g_inf=0.0, terms=())

    @given(prony_strategy, st.floats(0.01, 5.0))
    def test_integral_matches_quadrature(self, k, x):
        ref = quad(k.modulus, 0.0, x, limit=200)[0]
        assert k.integral(x) == pytest.approx(ref, rel=1e-9, abs=1e-12)

    @given(prony_strategy, st.floats(0.01, 5.0))
    def test_derivative_consistency(self, k, x):
        step = 1e-6 * max(1.0, x)
        dk = (k.modulus(x + step) - k.modulus(x - step)) / (2 * step)
        assert k.modulus_dt(x) == pytest.approx(dk, rel=1e-5, abs=1e-8)
        di = (k.integral(x + step) - k.integral(x - step)) / (2 * step)
        assert k.modulus(x) == pytest.approx(di, rel=1e-5, abs=1e-8)

    def test_array_input(self):
        k = PronyKernel(g_inf=0.5, terms=((0.5, 2.0),))
        t = np.array([0.0, 1.0, 2.0])
        out = k.modulus(t)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(1.0)


class TestPowerLaw:
    def test_pointwise(self):
        k = PowerLawKernel(c=2.0, alpha=0.5)
        assert k.modulus(4.0) == pytest.approx(1.0)
        assert k.modulus_dt(1.0) == pytest.approx(-1.0)
        assert k.modulus_dtt(1.0) == pytest.approx(1.5)
        assert k.singular_at_zero
        assert k.value_at_inf == 0.0

    def test_unbounded_at_zero_rejected(self):
        k = PowerLawKernel(c=1.0, alpha=0.5)
        with pytest.raises(KernelDomainError, match=re.escape(repr(k))):
            k.modulus(0.0)
        # a sum names itself, its power-law part included
        s = KernelSum((PronyKernel(0.5, ((0.5, 2.0),)), k))
        with pytest.raises(KernelDomainError, match=re.escape(repr(s))):
            s.modulus(0.0)
        with pytest.raises(KernelDomainError):
            k.modulus_dt(0.0)
        with pytest.raises(KernelDomainError):
            k.modulus(np.array([0.5, 0.0]))

    def test_antiderivative_tower_frozen(self):
        # reference values from adaptive quadrature across the singularity
        k = PowerLawKernel(c=1.0, alpha=0.5)
        assert k.integral(1.0) == pytest.approx(2.0, abs=1e-12)
        assert k.integral(0.25) == pytest.approx(1.0, abs=1e-12)
        assert k.integral2(1.0) == pytest.approx(1.3333333333333335, abs=1e-10)
        assert k.integral3(1.0) == pytest.approx(0.5333333333333333, abs=1e-9)
        assert k.integral(0.0) == 0.0

    def test_alpha_range(self):
        with pytest.raises(ValueError, match=r"alpha must be in \(0,1\)"):
            PowerLawKernel(c=1.0, alpha=1.5)
        with pytest.raises(ValueError):
            PowerLawKernel(c=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            PowerLawKernel(c=-1.0, alpha=0.5)

    @given(st.floats(0.1, 0.9), st.floats(0.05, 3.0))
    def test_integral_matches_quadrature(self, alpha, x):
        k = PowerLawKernel(c=1.0, alpha=alpha)
        ref = quad(k.modulus, 0.0, x, points=[0.0], limit=200)[0]
        assert k.integral(x) == pytest.approx(ref, rel=1e-8)


class TestKernelSum:
    def test_additivity(self):
        a = PronyKernel(g_inf=0.2, terms=((0.3, 1.0),))
        b = PowerLawKernel(c=0.5, alpha=0.4)
        s = KernelSum((a, b))
        t = np.linspace(0.1, 3.0, 7)
        assert s.modulus(t) == pytest.approx(a.modulus(t) + b.modulus(t))
        assert s.integral(2.0) == pytest.approx(a.integral(2.0) + b.integral(2.0))
        assert s.singular_at_zero
        assert s.value_at_inf == pytest.approx(0.2)

    def test_flattening(self):
        a = PronyKernel(1.0, ())
        b = PronyKernel(g_inf=0.0, terms=((0.5, 1.0),))
        c = PowerLawKernel(c=1.0, alpha=0.5)
        s = KernelSum((KernelSum((a, b)), c))
        assert len(s.parts) == 3

    def test_at_most_one_powerlaw(self):
        p = PowerLawKernel(c=1.0, alpha=0.5)
        with pytest.raises(ValueError):
            KernelSum((p, p))

    def test_needs_parts(self):
        with pytest.raises(ValueError):
            KernelSum(())


def rebased_tower(base, eps: float, x: np.ndarray):
    """The tower of G(eps + .) re-based to start at 0, by subtraction from
    the base kernel's tower: K(eps + x) - K(eps), and so on."""
    e = np.asarray(eps, dtype=float)
    k1, k2, k3 = partial(base._tower, -1), partial(base._tower, -2), partial(base._tower, -3)
    return (
        k1(x + eps) - k1(e),
        k2(x + eps) - k2(e) - k1(e) * x,
        k3(x + eps) - k3(e) - k2(e) * x - k1(e) * x * x / 2.0,
    )


def tower(k, x: np.ndarray):
    return k._tower(0, x), k._tower(1, x), k._tower(-1, x), k._tower(-2, x), k._tower(-3, x)


SHIFT_FAMILIES = [
    PronyKernel(g_inf=0.5, terms=((0.5, 2.0), (0.3, 0.7))),
    PowerLawKernel(c=1.0, alpha=0.5),
    KernelSum((PronyKernel(0.5, ((0.5, 2.0),)), PowerLawKernel(1.0, 0.5))),
]


class TestTranslated:
    def test_shifted_evaluation(self):
        base = PronyKernel(g_inf=0.5, terms=((0.5, 2.0),))
        k = translate(base, 0.3)
        assert k.modulus(0.0) == pytest.approx(base.modulus(0.3))
        assert k.modulus_dt(1.0) == pytest.approx(base.modulus_dt(1.3))
        assert k.value_at_inf == base.value_at_inf

    def test_rebased_tower(self):
        # antiderivatives restart at zero: reference from quadrature of G(0.3+s)
        base = PronyKernel(g_inf=0.5, terms=((0.5, 2.0),))
        k = translate(base, 0.3)
        assert k.integral(0.0) == 0.0
        assert k.integral2(0.0) == 0.0
        assert k.integral(1.0) == pytest.approx(0.8386621996640418, abs=1e-12)

    @given(st.floats(0.01, 1.0), st.floats(0.05, 2.0))
    def test_tower_consistency(self, eps, x):
        base = PowerLawKernel(c=1.0, alpha=0.5)
        k = translate(base, eps)
        step = 1e-6
        d2 = (k.integral2(x + step) - k.integral2(x - step)) / (2 * step)
        assert d2 == pytest.approx(k.integral(x), rel=1e-5, abs=1e-8)
        d3 = (k.integral3(x + step) - k.integral3(x - step)) / (2 * step)
        assert d3 == pytest.approx(k.integral2(x), rel=1e-5, abs=1e-8)

    def test_desingularizes(self):
        k = translate(PowerLawKernel(c=1.0, alpha=0.5), 0.04)
        assert k.modulus(0.0) == pytest.approx(5.0)
        assert not k.singular_at_zero

    def test_nested_shifts_collapse(self):
        # a shifted power law is a power law with the shifts summed
        base = PowerLawKernel(c=1.0, alpha=0.5)
        k = translate(translate(base, 0.1), 0.2)
        assert k == PowerLawKernel(c=1.0, alpha=0.5, offset=0.1 + 0.2)

    @pytest.mark.parametrize("base", SHIFT_FAMILIES, ids=["prony", "powerlaw", "sum"])
    def test_a_shift_is_a_member_of_the_family(self, base):
        k = translate(base, 0.3)
        assert type(k) is type(base)
        if isinstance(k, KernelSum):
            assert [type(p) for p in k.parts] == [type(p) for p in base.parts]

    @pytest.mark.parametrize("base", SHIFT_FAMILIES, ids=["prony", "powerlaw", "sum"])
    def test_shifts_compose(self, base):
        x = np.linspace(0.0, 4.0, 41)
        nested, whole = translate(translate(base, 0.1), 0.2), translate(base, 0.1 + 0.2)
        for got, want in zip(tower(nested, x), tower(whole, x)):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize(
        "base",
        [PronyKernel(0.5, ((0.5, 2.0),)), PronyKernel(0.0, ((0.4, 0.7), (0.2, 3.0)))],
        ids=["1-term", "2-term"],
    )
    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.0])
    def test_prony_shift_is_the_shifted_series(self, base, eps):
        x = np.linspace(0.0, 4.0, 41)
        k = translate(base, eps)
        pairs = [(k._tower(0, x), base._tower(0, x + eps)), (k._tower(1, x), base._tower(1, x + eps))]
        pairs += zip((k._tower(-1, x), k._tower(-2, x), k._tower(-3, x)), rebased_tower(base, eps, x))
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("eps", [0.1, 0.0125, 0.3])
    def test_power_law_shift_keeps_the_rebased_bits(self, eps):
        # the offset power law re-bases its tower in the order of operations
        # of rebased_tower, so every weight built on it keeps its bits
        base = PowerLawKernel(c=1.0, alpha=0.5)
        x = 0.005 * np.arange(201)
        k = translate(base, eps)
        for got, want in zip((k._tower(-1, x), k._tower(-2, x), k._tower(-3, x)), rebased_tower(base, eps, x)):
            assert got.tobytes() == want.tobytes()
        assert k._tower(0, x).tobytes() == base._tower(0, x + eps).tobytes()

    def test_unshifted_power_law_reads_as_before(self):
        # the repr feeds every spec fingerprint
        k = PowerLawKernel(1.0, 0.5)
        assert repr(k) == "PowerLawKernel(c=1.0, alpha=0.5)"
        assert repr(translate(k, 0.25)) == "PowerLawKernel(c=1.0, alpha=0.5, offset=0.25)"

    def test_prony_and_sum_reprs_are_pinned(self):
        # the repr feeds every spec fingerprint, as the configs spell them
        prony = kernel_from_dict({"family": "prony", "g_inf": 0.5, "terms": [[0.3, 1], [0.2, 0.1]]})
        assert repr(prony) == "PronyKernel(g_inf=0.5, terms=((0.3, 1.0), (0.2, 0.1)))"
        assert repr(kernel_from_dict({"family": "constant", "g0": 1})) == "PronyKernel(g_inf=1.0, terms=())"
        total = kernel_from_dict(
            {"family": "sum", "parts": [{"family": "prony", "g_inf": 0.2, "terms": [[0.3, 1.0]]},
                                        {"family": "powerlaw", "c": 0.5, "alpha": 0.5}]}
        )
        assert repr(total) == (
            "KernelSum(parts=(PronyKernel(g_inf=0.2, terms=((0.3, 1.0),)), PowerLawKernel(c=0.5, alpha=0.5)))"
        )

    def test_underflowed_prony_weight_is_kept_as_zero(self):
        # e^{-1000} underflows: the shift is a zero modulus, not a refusal
        k = translate(PronyKernel(0.0, ((1.0, 0.001),)), 1.0)
        assert k.terms == ((0.0, 0.001),)
        x = np.linspace(0.0, 1.0, 5)
        assert all(not np.any(values) for values in tower(k, x))

    def test_constant_modulus_is_its_own_shift(self):
        base = PronyKernel(2.0, ())
        assert translate(base, 0.3) is base

    @pytest.mark.parametrize("base", SHIFT_FAMILIES, ids=["prony", "powerlaw", "sum"])
    def test_zero_shift_is_the_kernel(self, base):
        assert translate(base, 0.0) is base
        assert translate(base, -0.0) is base

    def test_positive_shift_required(self):
        # translate passes a zero shift through; a power law refuses a negative offset
        with pytest.raises(KernelDomainError):
            PowerLawKernel(c=1.0, alpha=0.5, offset=-0.1)
        for base in (PronyKernel(1.0, ()), PowerLawKernel(c=1.0, alpha=0.5), *SHIFT_FAMILIES):
            for eps in (-0.1, -1e-300, math.inf, math.nan):
                with pytest.raises(KernelDomainError):
                    translate(base, eps)


# one kernel of each kind the tower is written for; a kernel unbounded at
# t = 0 is sampled at t > 0 only
TOWER_KERNELS = {
    "prony_0": PronyKernel(1.5, ()),
    "prony_1": PronyKernel(0.5, ((0.5, 2.0),)),
    "prony_2": PronyKernel(0.1, ((0.4, 0.7), (0.2, 3.0))),
    "prony_shifted": translate(PronyKernel(0.1, ((0.4, 0.7), (0.2, 3.0))), 0.3),
    "powerlaw": PowerLawKernel(1.0, 0.5),
    "powerlaw_shifted": translate(PowerLawKernel(0.8, 0.3), 0.05),
    "sum": KernelSum((PronyKernel(0.5, ((0.5, 2.0),)), PowerLawKernel(1.0, 0.5))),
}

# sha256 of each member's float64 bytes on tower_grid, orders -3 .. 2, as the
# closed forms gave them when each member was a method of its own
TOWER_DIGESTS = {
    "prony_0": (
        "c8d49b632a2695a8f57afee8f5d6f0b6e0e889081895573f2223f31ff36d6818",
        "cf9c399c2841951ebc285d77886a963a003789a05b772fa8bcb482eefa361836",
        "b9a5c1a240691d77a6d6b79f25e72aee338d08ea2c231e689afdfe18a035d5d7",
        "220c6a5a99db8aee4867401a0c3878924bd9fdefdee983408e0a8eba6992271e",
        "7b4499c3cc6e82a9da3100028f52af7f8c1e9ee60e33010a108e401989782962",
        "7b4499c3cc6e82a9da3100028f52af7f8c1e9ee60e33010a108e401989782962",
    ),
    "prony_1": (
        "d6f320f82887726d2480de7e475bd45775979bd780da1e62227cead0a9c1c3fc",
        "3f81c7ed1e7a1403d487f269b39dde0998d6a065e4ae31365f5fabc35b1158cb",
        "727c5bfdcb5fb54b44fd9b78ad7666cc36b0c155b6d79e9825de660e769e1204",
        "54ee6d20131aa23498817551c85e6f8540d72a1ddacf7d061358ac4c5e88424a",
        "30a1dbdbe2b7ac1e823ed9182671541d3d26f9984d89cbfff7f032a97110d8ab",
        "02bf68743ecf4ac189e9a2a310fd5def7b3be63cb1d6a1ac1d91d00c9ab76ab3",
    ),
    "prony_2": (
        "7830f26942dcdc6dc082a720555ba621047f5d05ef8e632d279d3fe110a69e4a",
        "fb308e06a4647d63b1198ee96082a9c76c48307682c6a432ebe42406d2190a37",
        "ac1568cb5950a83f1cd9460303d0eea6d7059e7bf91896a346eafea0c957f8ce",
        "8253bd7b106652911c85e9356a84bc5cb41a94653c80ff26444dff693c8b0ba5",
        "076a53f5478a8b5f8a387ca3dec1905350f046b733e4e4d1f2387745e4169f76",
        "691d78995cb76fbb3cb5ace8b8939a01ed01da522a1e6fe21b8d73d22a825d04",
    ),
    "prony_shifted": (
        "45f0a2754d36868c8e19956d9e9e7b46b94d6288376316bfa1fab04bebab5801",
        "d168c67951129734aa6099c8dfc424676330d4f69652572d854e4329ed4e0e31",
        "6fa181263267172dd7ecfe6ccdd27a7256d97d9366817d4b04350eeda748cd33",
        "d1cc73b1b3a9d6fd2f6a9e90a5e932b4789abdc8df01a99d41921b6dfd1f0fe4",
        "2ee34baeaf42aa5888fa1e23954be6b3cffbb51814dca3e2c138cc6005193f4c",
        "0fbe0553d22bfea767f13063f49816f1d0e02674b13bacf659095a81172aa69e",
    ),
    "powerlaw": (
        "f8180252041d6cd9a814c8ce87c434912d97b94319e3f17674a7cca4ee927f2c",
        "1ad843819b195b4a4735b00a2aedffa584454169037e2ad3b4b5dff4a592f86f",
        "b29416b3014d3cb82054ccf44addb5d6325d57cd9c18df92f1320912bc2a6fde",
        "4cb211ecd74e4e82a3b3fa6ed7e7f93faef64c29586125a90905e8fe79f5af03",
        "10c92184e35da77c511e15fd8db84257fe3e60d71d5cb5ea829bc3fcae9435ff",
        "769665462a069558b256000d8356bd8f31c4bc6c6c0f57f292cd506e1e68fcb1",
    ),
    "powerlaw_shifted": (
        "c9024bf01b8bc143d324d850c6f1f46e1ab93dd98d2ac9e0e45939b948405072",
        "25c8a1fbf9faf587bf0853720038003a4559db52b9e48d20fe11d867733ccbd2",
        "53dca5219994aca47d5c12f1c4fde9bb3c046851041d06a1a586d5acf31ad463",
        "16874791ba1ca2bbe5fcb951d9a5585977d5e00b196994c5543053499f7a5a13",
        "ee12d0e0b6f2b9ab738e1e46fbcb4a31563951c46aee4b15d137ead257f24de7",
        "e20dd6171fa548ed818ab2a74b7fa0ea5bc072091a06fb0e9d22b7ea367f476e",
    ),
    "sum": (
        "984702eccd33f2e8dfd3b8c906769337edda7fa0312110d6d1e23c3b7002660a",
        "03d99fc7b72a84ca80529779ef4b7a1c082e67bb48fe2c66d676c247ffeb454c",
        "6a8279f32ce5e977e4ab9bc126ecb0ac96811e644ffba11dcd7062320925895b",
        "16e0da0fe1c5076afe72a722c63ec7bbd3c37c1a006e088d98fa79903794be9b",
        "6fca7febb35223d056744220d5c188f37dd5d7a479d0bb160fc583c88c11b934",
        "7111aa25c076549febe734a1ef8210fe0479d460d8b4a635521fea33ee659348",
    ),
}

PUBLIC_ORDERS = {
    "integral3": -3, "integral2": -2, "integral": -1, "modulus": 0, "modulus_dt": 1, "modulus_dtt": 2,
}


def tower_grid(k) -> np.ndarray:
    t = np.linspace(0.0, 4.0, 41)
    return t[1:] if k.singular_at_zero else t


class TestTower:
    @pytest.mark.parametrize("name", TOWER_DIGESTS)
    def test_members_keep_their_bits(self, name):
        k = TOWER_KERNELS[name]
        t = tower_grid(k)
        got = tuple(hashlib.sha256(k._tower(order, t).tobytes()).hexdigest() for order in range(-3, 3))
        assert got == TOWER_DIGESTS[name]

    @pytest.mark.parametrize("name", TOWER_KERNELS)
    def test_public_methods_read_the_tower(self, name):
        k = TOWER_KERNELS[name]
        t = tower_grid(k)
        for method, order in PUBLIC_ORDERS.items():
            assert getattr(k, method)(t).tobytes() == k._tower(order, t).tobytes()

    @pytest.mark.parametrize("name", ["prony_2", "prony_shifted", "powerlaw", "powerlaw_shifted", "sum"])
    @pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 2.5])
    def test_each_member_is_the_derivative_of_the_one_below(self, name, x):
        k = TOWER_KERNELS[name]
        step = 1e-6 * max(1.0, x)
        ends = np.array([x - step, x + step])
        for order in range(-3, 2):
            below = k._tower(order, ends)
            central = (below[1] - below[0]) / (2 * step)
            assert float(k._tower(order + 1, np.array(x))) == pytest.approx(central, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("name", TOWER_KERNELS)
    @pytest.mark.parametrize("order", [-4, 3, 7])
    def test_an_order_outside_the_tower_is_refused(self, name, order):
        with pytest.raises(ValueError, match=f"tower order {order} is outside -3 .. 2"):
            TOWER_KERNELS[name]._tower(order, np.linspace(0.1, 1.0, 4))


class TestDiffBound:
    def test_powerlaw_closed_form(self):
        k = PowerLawKernel(c=1.0, alpha=0.5)
        for eps in (0.2, 0.1, 0.05, 0.0125):
            assert abs(kernel_diff_bound(k, eps, 0.0) - 2.0 * math.sqrt(eps)) < 1e-12

    def test_prony_closed_form(self):
        k = PronyKernel(g_inf=0.0, terms=((1.0, 1.0),))
        for eps in (0.2, 0.05):
            for s in (0.0, 0.3, 1.0, 2.0):
                exact = math.exp(-s) * (1.0 - math.exp(-eps))
                assert abs(kernel_diff_bound(k, eps, s) - exact) < 1e-12

    def test_constant_is_linear(self):
        k = PronyKernel(2.0, ())
        assert kernel_diff_bound(k, 0.1, 0.0) == pytest.approx(0.2)

    @given(prony_strategy, st.floats(0.01, 0.5), st.floats(0.0, 2.0))
    def test_nonnegative_and_peaks_at_origin(self, k, eps, s):
        b = kernel_diff_bound(k, eps, s)
        assert b >= 0.0
        assert b <= kernel_diff_bound(k, eps, 0.0) + 1e-12


class TestAdmissibility:
    def test_prony_classical(self):
        rep = check_admissibility(PronyKernel(g_inf=0.0, terms=((1.0, 1.0),)), 1.0)
        assert rep.passed
        assert rep.regime == "classical"
        assert rep.bounded_at_zero
        assert rep.rate_integrable_at_zero
        assert rep.integrable_on_window
        assert rep.integrable_on_halfline

    def test_powerlaw_singular(self):
        rep = check_admissibility(PowerLawKernel(c=1.0, alpha=0.5), 1.0)
        assert rep.passed
        assert rep.regime == "singular"
        assert not rep.bounded_at_zero
        assert not rep.rate_integrable_at_zero
        assert rep.integrable_on_window
        assert not rep.integrable_on_halfline

    def test_constant_not_integrable_on_halfline(self):
        rep = check_admissibility(PronyKernel(1.0, ()), 1.0)
        assert rep.passed
        assert not rep.integrable_on_halfline

    def test_negative_control_fails_without_raising(self):
        bad = unchecked_prony(1.0, ((-0.5, 0.5),))
        rep = check_admissibility(bad, 1.0)
        assert not rep.passed
        assert not rep.rate_nonpositive

    def test_report_sampling(self):
        rep = check_admissibility(PronyKernel(g_inf=0.5, terms=((0.5, 2.0),)), 2.0, n_samples=64)
        assert rep.times.shape == (64,)
        assert rep.times[-1] == pytest.approx(2.0)
        assert np.all(np.diff(rep.times) > 0)

    # (modulus_positive, rate_nonpositive, curvature_nonnegative,
    # bounded_at_zero, rate_integrable_at_zero, integrable_on_window,
    # integrable_on_halfline, passed, regime) on (0, 1], as each family
    # reported them while rate integrability was a flag of its own
    @pytest.mark.parametrize(
        "kernel, want",
        [
            (PronyKernel(0.0, ((1.0, 1.0),)), (True,) * 8 + ("classical",)),
            (PronyKernel(0.5, ((0.5, 2.0),)), (True,) * 6 + (False, True, "classical")),
            (PronyKernel(1.0, ()), (True,) * 6 + (False, True, "classical")),
            (PowerLawKernel(1.0, 0.5), (True,) * 3 + (False, False, True, False, True, "singular")),
            (
                KernelSum((PronyKernel(0.5, ((0.5, 2.0),)), PowerLawKernel(1.0, 0.5))),
                (True,) * 3 + (False, False, True, False, True, "singular"),
            ),
            (
                KernelSum((PronyKernel(0.5, ((0.5, 2.0),)), PronyKernel(0.0, ((1.0, 0.5),)))),
                (True,) * 6 + (False, True, "classical"),
            ),
            (translate(PowerLawKernel(1.0, 0.5), 0.04), (True,) * 6 + (False, True, "classical")),
            (translate(PronyKernel(0.5, ((0.5, 2.0),)), 0.1), (True,) * 6 + (False, True, "classical")),
        ],
        ids=[
            "prony", "prony_g_inf", "constant", "powerlaw", "sum_singular", "sum_bounded",
            "translated_powerlaw", "translated_prony",
        ],
    )
    def test_report_fields_per_family(self, kernel, want):
        rep = check_admissibility(kernel, 1.0)
        got = (
            rep.modulus_positive, rep.rate_nonpositive, rep.curvature_nonnegative,
            rep.bounded_at_zero, rep.rate_integrable_at_zero, rep.integrable_on_window,
            rep.integrable_on_halfline, rep.passed, rep.regime,
        )
        assert got == want
        assert rep.modulus_values.tobytes() == kernel._tower(0, rep.times).tobytes()
        assert rep.rate_values.tobytes() == kernel._tower(1, rep.times).tobytes()
        assert rep.curvature_values.tobytes() == kernel._tower(2, rep.times).tobytes()

    @given(prony_strategy)
    def test_admissible_prony_passes(self, k):
        assert check_admissibility(k, 1.0).passed


class TestFadingMemory:
    def test_exponential_oracle(self):
        # tail bound * e^{-a} drops to e^{-3} exactly at a = 3
        k = PronyKernel(g_inf=0.0, terms=((1.0, 1.0),))
        a = check_fading_memory(k, history_norm_bound=1.0, tol=math.exp(-3.0))
        assert a == pytest.approx(3.0, rel=1e-9)

    def test_powerlaw_oracle(self):
        # tail bound a^{-1/2} drops to 0.1 exactly at a = 100
        k = PowerLawKernel(c=1.0, alpha=0.5)
        a = check_fading_memory(k, history_norm_bound=1.0, tol=0.1)
        assert a == pytest.approx(100.0, rel=1e-9)

    def test_constant_memoryless_tail(self):
        assert check_fading_memory(PronyKernel(1.0, ()), 1.0, 1e-6) == 0.0

    def test_unattainable_returns_inf(self):
        k = PowerLawKernel(c=1.0, alpha=0.5)
        assert check_fading_memory(k, 1.0, 1e-7) == math.inf

    def test_scales_with_history_bound(self):
        k = PronyKernel(g_inf=0.0, terms=((1.0, 1.0),))
        a1 = check_fading_memory(k, 1.0, 0.01)
        a2 = check_fading_memory(k, math.e, 0.01)
        assert a2 == pytest.approx(a1 + 1.0, rel=1e-7)

    @given(
        fading_kernel_strategy,
        st.floats(1e-6, 0.3),
        st.sampled_from([0.5, 1.0, math.e, 10.0]),
    )
    def test_smallest_float_meeting_tolerance(self, k, tol, bound):
        # the docstring's contract at float resolution: a* meets the
        # tolerance and the float just below it does not
        def tail(a):
            return bound * (k.modulus(a) - k.value_at_inf)

        a = check_fading_memory(k, bound, tol)
        if 0 < a < math.inf:
            assert tail(a) <= tol < tail(np.nextafter(a, 0.0))


class TestKernelFromDict:
    def test_families(self):
        assert isinstance(kernel_from_dict({"family": "constant", "g0": 1.0}), PronyKernel)
        k = kernel_from_dict({"family": "prony", "g_inf": 0.5, "terms": [[0.5, 2.0]]})
        assert isinstance(k, PronyKernel)
        assert k.terms == ((0.5, 2.0),)
        assert isinstance(
            kernel_from_dict({"family": "powerlaw", "c": 1.0, "alpha": 0.5}),
            PowerLawKernel,
        )
        s = kernel_from_dict(
            {
                "family": "sum",
                "parts": [
                    {"family": "constant", "g0": 1.0},
                    {"family": "powerlaw", "c": 0.5, "alpha": 0.3},
                ],
            }
        )
        assert isinstance(s, KernelSum)

    def test_constant_is_a_prony_kernel_without_terms(self):
        # both spellings of one modulus parse to one kernel, so they share
        # every code path, the shift rule included
        constant = kernel_from_dict({"family": "constant", "g0": 1.0})
        assert constant == kernel_from_dict({"family": "prony", "g_inf": 1.0, "terms": []})
        assert translate(constant, 0.1) is constant

    @pytest.mark.parametrize("g0", [0.0, -1.0])
    def test_constant_needs_positive_g0(self, g0):
        # a term-less Prony kernel would name g_inf or call the kernel zero
        with pytest.raises(ValueError, match=re.escape(f"g0 must be positive, got {g0}")):
            kernel_from_dict({"family": "constant", "g0": g0})

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            kernel_from_dict({"family": "maxwell"})

    def test_extra_keys_rejected(self):
        with pytest.raises(ValueError):
            kernel_from_dict({"family": "constant", "g0": 1.0, "tau": 2.0})

    def test_numeric_text_is_a_number(self):
        assert kernel_from_dict({"family": "powerlaw", "c": "1.5", "alpha": 0.5}) == PowerLawKernel(1.5, 0.5)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"family": "constant", "g0": True}, "malformed constant kernel: g0 = True"),
            ({"family": "constant", "g0": "abc"}, "malformed constant kernel: g0 = 'abc'"),
            ({"family": "constant", "g0": float("inf")}, "g0 = inf is not finite"),
            ({"family": "prony", "g_inf": 0.5, "terms": [[0.5, 1.0, 2.0]]}, "malformed prony kernel: terms"),
        ],
        ids=["bool", "text", "inf", "triple"],
    )
    def test_malformed_spec_rejected(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            kernel_from_dict(spec)
