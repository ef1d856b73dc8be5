"""Unit tests for the density-matrix substrate and noisy A3."""

import numpy as np
import pytest

from repro.comm.disjointness import disjoint_pair, intersecting_pair
from repro.errors import QuantumError
from repro.quantum import GroverA3
from repro.quantum.density import DensityMatrix, NoisyGroverA3
from repro.quantum.operators import UkOperator, initial_phi
from repro.quantum.registers import A3Registers


class TestDensityMatrix:
    def test_from_pure_state(self):
        vec = np.array([1, 1j], dtype=np.complex128) / np.sqrt(2)
        rho = DensityMatrix.from_state_vector(vec)
        assert rho.purity() == pytest.approx(1.0)
        assert rho.probability_of_bit(0, 1) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(QuantumError):
            DensityMatrix(np.eye(4))  # trace 4
        with pytest.raises(QuantumError):
            DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
        with pytest.raises(QuantumError):
            DensityMatrix(np.eye(3) / 3)  # not a power of 2

    def test_unitary_fn_matches_pure_evolution(self):
        regs = A3Registers(1)
        vec = initial_phi(regs)
        op = UkOperator(regs)
        rho = DensityMatrix.from_state_vector(vec).apply_unitary_fn(
            lambda v: op.apply(v)
        )
        evolved = op.apply(vec.copy())
        assert np.allclose(rho.rho, np.outer(evolved, evolved.conj()), atol=1e-12)
        assert rho.purity() == pytest.approx(1.0)

    def test_depolarize_interpolates(self):
        vec = np.array([1, 0], dtype=np.complex128)
        rho = DensityMatrix.from_state_vector(vec).depolarize(0.5)
        assert rho.probability_of_bit(0, 0) == pytest.approx(0.75)
        assert rho.purity() < 1.0

    def test_depolarize_full_is_mixed(self):
        vec = np.array([1, 0, 0, 0], dtype=np.complex128)
        rho = DensityMatrix.from_state_vector(vec).depolarize(1.0)
        assert np.allclose(rho.rho, np.eye(4) / 4, atol=1e-12)

    def test_depolarize_validation(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(QuantumError):
            rho.depolarize(1.5)


class TestNoisyGroverA3:
    def test_zero_noise_matches_pure_simulation(self):
        x, y = intersecting_pair(4, 2, np.random.default_rng(0))
        clean = GroverA3(1, x, y)
        noisy = NoisyGroverA3(1, x, y, 0.0)
        for j in range(2):
            assert noisy.detection_probability(j) == pytest.approx(
                clean.detection_probability(j), abs=1e-10
            )

    @pytest.mark.parametrize("iterations", range(4))
    def test_purity_matches_depolarizing_closed_form(self, iterations):
        """Unitaries keep Tr(rho^2); each of the iterations + 1
        depolarizations scales Tr(rho^2) - 1/d by (1 - lam)^2."""
        lam = 0.1
        x, y = intersecting_pair(16, 3, np.random.default_rng(5))
        noisy = NoisyGroverA3(2, x, y, lam)
        d = noisy.regs.dimension
        expect = 1 / d + (1 - 1 / d) * (1 - lam) ** (2 * (iterations + 1))
        assert noisy.state_after(iterations).purity() == pytest.approx(expect, abs=1e-10)

    def test_noise_breaks_perfect_completeness(self):
        """The one-sided guarantee is a zero-noise artifact: any noise puts
        detection mass on members too."""
        x, y = disjoint_pair(4, np.random.default_rng(1))
        assert NoisyGroverA3(1, x, y, 0.0).average_detection_probability() == pytest.approx(0.0)
        assert NoisyGroverA3(1, x, y, 0.1).average_detection_probability() > 0.01

    def test_noise_pulls_toward_half(self):
        x, y = intersecting_pair(4, 4, np.random.default_rng(2))  # clean det = 1
        dets = [
            NoisyGroverA3(1, x, y, lam).average_detection_probability()
            for lam in (0.0, 0.3, 1.0)
        ]
        assert dets[0] == pytest.approx(1.0)
        assert dets[0] > dets[1] > dets[2]
        assert dets[2] == pytest.approx(0.5, abs=1e-9)

    def test_gap_survives_moderate_noise(self):
        """Decision gap (worst non-member detection minus member detection)
        stays positive at 10% depolarization per pass — the machine's
        guarantee degrades gracefully rather than collapsing."""
        lam = 0.1
        xm, ym = disjoint_pair(4, np.random.default_rng(3))
        member_det = NoisyGroverA3(1, xm, ym, lam).average_detection_probability()
        worst = min(
            NoisyGroverA3(
                1, *intersecting_pair(4, t, np.random.default_rng(t)), lam
            ).average_detection_probability()
            for t in (1, 2, 3, 4)
        )
        assert worst - member_det > 0.15
