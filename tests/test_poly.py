from modcurve.arith import Cyclotomic
from modcurve.poly import Poly


class TestHash:
    def test_constant_hashes_like_scalar(self):
        assert Poly([3]) == 3
        assert len({Poly([3]), 3}) == 1

    def test_cyclotomic_constant_coefficient(self):
        assert len({Poly([Cyclotomic.scalar(8, 3)]), Poly([3]), 3}) == 1

    def test_zero(self):
        assert len({Poly([]), Poly([0]), 0}) == 1
