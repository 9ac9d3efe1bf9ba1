"""Golden Luxemburg norms, compared bit for bit as ``float.hex`` strings.

Recorded before the modular's quadrature moved onto the fixed cell geometry
of each norm's abscissae: every ratio of ``oracle.norm_probe`` on test_10's
twelve pairs, with the indicator family and with the default family, and the
indicator norms at r = 1e-6, 1, 1e6 of the eight distinct domains of those
pairs.  A change to the norm path (the modular, its quadrature, the root
search) shows here as every bit it moves.
"""

import numpy as np
import pytest

from orlicz_calc import families as fam, oracle as orc, young
from orlicz_calc.grid import StepFn
from orlicz_calc.young import GammaContext

from conftest import make

CONTEXTS = {"2,1": GammaContext(2, 1.0), "3,1": GammaContext(3, 1.0)}
INDICATOR_RADII = (1e-6, 1.0, 1e6)


def mixed(p0, pinf):
    return fam.AsymptoticFamily(fam.piece(fam.PowerFactor(p0)),
                                fam.piece(fam.PowerFactor(pinf)))


FAMILIES = {
    "Lp(4/3)": fam.lp(4.0 / 3.0), "Lp(4)": fam.lp(4), "Lp(2)": fam.lp(2),
    "Lp(6)": fam.lp(6), "Lp(1.5)": fam.lp(1.5), "Lp(3)": fam.lp(3),
    "Lp(2.5)": fam.lp(2.5), "Lp(15)": fam.lp(15),
    "Zyg(2,1)": fam.zygmund(2, 1, 2, 1), "Zyg(6,3)": fam.zygmund(6, 3, 6, 3),
    "Linf": fam.linf(), "L1": fam.l1(), "Pow(t^2,t^1.2)": mixed(2.0, 1.2),
    "Lp(1.2)": fam.lp(1.2), "Lp(30)": fam.lp(30),
}

RATIOS = {
    ('2,1', 'Lp(4/3)', 'Lp(4)'): dict(
        indicator=(
            '0x1.131703da72014p+0', '0x1.131703da7201ep+0',
            '0x1.131703da7201bp+0', '0x1.131703da7200dp+0',
            '0x1.131703da72013p+0',),
        default=(
            '0x1.131703da72014p+0', '0x1.131703da7201ep+0',
            '0x1.131703da7201bp+0', '0x1.131703da7200dp+0',
            '0x1.131703da72013p+0', '0x1.0cba2446c2759p+0',
            '0x1.0cba2446c2753p+0', '0x1.0cba2446c2753p+0',
            '0x1.0cba2446c26f5p+0', '0x1.0cba2446c274ep+0',
            '0x1.151acce9b88f6p+0', '0x1.151acce9b88f1p+0',
            '0x1.151acce9b88f1p+0', '0x1.151acce9b88f1p+0',
            '0x1.151acce9b88f1p+0',),
    ),
    ('3,1', 'Lp(2)', 'Lp(6)'): dict(
        indicator=(
            '0x1.de8b2289ff5ebp-1', '0x1.de8b2289ff5f3p-1',
            '0x1.de8b2289fedb6p-1', '0x1.de8b2289ff5ecp-1',
            '0x1.de8b2289ff5f3p-1',),
        default=(
            '0x1.de8b2289ff5ebp-1', '0x1.de8b2289ff5f3p-1',
            '0x1.de8b2289fedb6p-1', '0x1.de8b2289ff5ecp-1',
            '0x1.de8b2289ff5f3p-1', '0x1.8f36c03ccb2dcp-1',
            '0x1.8f36c03ccb2c3p-1', '0x1.8f36c03ccb2cfp-1',
            '0x1.8f36c03ccb291p-1', '0x1.8f36c03ccb2c2p-1',
            '0x1.e2db395b49183p-1', '0x1.e2db395b4916fp-1',
            '0x1.e2db395b49161p-1', '0x1.e2db395b49160p-1',
            '0x1.e2db395b49160p-1',),
    ),
    ('3,1', 'Lp(1.5)', 'Lp(3)'): dict(
        indicator=(
            '0x1.250bfe1b07c38p+0', '0x1.250bfe1b07c40p+0',
            '0x1.250bfe1b07c46p+0', '0x1.250bfe1b07c34p+0',
            '0x1.250bfe1b07c34p+0',),
        default=(
            '0x1.250bfe1b07c38p+0', '0x1.250bfe1b07c40p+0',
            '0x1.250bfe1b07c46p+0', '0x1.250bfe1b07c34p+0',
            '0x1.250bfe1b07c34p+0', '0x1.2a01c116955f1p+0',
            '0x1.2a01c116955f5p+0', '0x1.2a01c116955f0p+0',
            '0x1.2a01c11695e4ep+0', '0x1.2a01c116955e2p+0',
            '0x1.2a4531898b422p+0', '0x1.2a4531898b425p+0',
            '0x1.2a4531898b42ap+0', '0x1.2a4531898b421p+0',
            '0x1.2a4531898b421p+0',),
    ),
    ('3,1', 'Lp(2.5)', 'Lp(15)'): dict(
        indicator=(
            '0x1.d617a04329cd3p-1', '0x1.d617a04329ccdp-1',
            '0x1.d617a04329ce3p-1', '0x1.d617a04329cc2p-1',
            '0x1.d617a04329cc9p-1',),
        default=(
            '0x1.d617a04329cd3p-1', '0x1.d617a04329ccdp-1',
            '0x1.d617a04329ce3p-1', '0x1.d617a04329cc2p-1',
            '0x1.d617a04329cc9p-1', '0x1.72d69c39e8393p-1',
            '0x1.72d69c39e8393p-1', '0x1.72d69c39e8392p-1',
            '0x1.72d69c39e8382p-1', '0x1.72d69c39e8394p-1',
            '0x1.cfd7db5ec59d9p-1', '0x1.cfd7db5ec59d7p-1',
            '0x1.cfd7db5ec59c6p-1', '0x1.cfd7db5ec59cep-1',
            '0x1.cfd7db5ec59c8p-1',),
    ),
    ('3,1', 'Zyg(2,1)', 'Zyg(6,3)'): dict(
        indicator=(
            '0x1.3ab4e9d5d33a8p-1', '0x1.5e46235a92268p-1',
            '0x1.09f8b09172afap+0', '0x1.6afa1d0b796afp-1',
            '0x1.50465760cf909p-1',),
        default=(
            '0x1.3ab4e9d5d33a8p-1', '0x1.5e46235a92268p-1',
            '0x1.09f8b09172afap+0', '0x1.6afa1d0b796afp-1',
            '0x1.50465760cf909p-1', '0x1.e68d5402121c4p-2',
            '0x1.fff214a5f6e7fp-2', '0x1.145f6e14c318fp-1',
            '0x1.44bb0b8332924p-1', '0x1.44bc164461ebdp-1',
            '0x1.f49c9b899f152p-1', '0x1.7116da13ba125p-1',
            '0x1.54e6af41a606bp-1', '0x1.479c48c6750a3p-1',
            '0x1.3f91d4e9c657ap-1',),
    ),
    ('3,1', 'Lp(3)', 'Linf'): dict(
        indicator=(
            '0x1.ffffffffff43dp-1', '0x1.ffffffffff438p-1',
            '0x1.ffffffffff442p-1', '0x1.ffffffffff42dp-1',
            '0x1.ffffffffff431p-1',),
        default=(
            '0x1.ffffffffff43dp-1', '0x1.ffffffffff438p-1',
            '0x1.ffffffffff442p-1', '0x1.ffffffffff42dp-1',
            '0x1.ffffffffff431p-1', '0x1.802046ec9e5e5p-1',
            '0x1.802046ec9e5eep-1', '0x1.802046ec9e5e7p-1',
            '0x1.802046ec9e5e5p-1', '0x1.802046ec9e5e5p-1',
            '0x1.e8330c3e0827bp-1', '0x1.e8330c3e08277p-1',
            '0x1.e8330c3e08276p-1', '0x1.e8330c3e08270p-1',
            '0x1.e8330c3e08274p-1',),
    ),
    ('3,1', 'L1', 'Pow(t^2,t^1.2)'): dict(
        indicator=(
            '0x1.d23165ea22534p+1', '0x1.9127532b3b7d9p+1',
            '0x1.e5b9d136c5fabp+0', '0x1.c2e86e6dd510fp-1',
            '0x1.a295fa15812a7p-2',),
        default=(
            '0x1.d23165ea22534p+1', '0x1.9127532b3b7d9p+1',
            '0x1.e5b9d136c5fabp+0', '0x1.c2e86e6dd510fp-1',
            '0x1.a295fa15812a7p-2', '0x1.d79cca7506af7p+1',
            '0x1.9e76f7fca3129p+1', '0x1.0eb943c256f10p+1',
            '0x1.f7b3525f7b374p-1', '0x1.d39816fb2588ep-2',
            '0x1.ecd481dd8270ep+0', '0x1.c980c0eec9585p-1',
            '0x1.a8b546c60919ep-2', '0x1.8a439b179b8cfp-3',
            '0x1.6e009a58a1125p-4',),
    ),
    ('3,1', 'Lp(1.2)', 'Lp(6)'): dict(
        indicator=(
            '0x1.422f41b314717p+4', '0x1.15a677fbb11a3p+2',
            '0x1.de8b2289fedb6p-1', '0x1.9c6572d0be01dp-3',
            '0x1.6364709e53543p-5',),
        default=(
            '0x1.422f41b314717p+4', '0x1.15a677fbb11a3p+2',
            '0x1.de8b2289fedb6p-1', '0x1.9c6572d0be01dp-3',
            '0x1.6364709e53543p-5', '0x1.d316bb19c61dap+4',
            '0x1.92866119073f1p+2', '0x1.5ae2ad7cf9d44p+0',
            '0x1.2aefd3e7890b8p-2', '0x1.019daec8568f2p-4',
            '0x1.e92e436c96e0fp-1', '0x1.a5902b61f387bp-3',
            '0x1.6b4ac8618b34cp-5', '0x1.39135e59fa285p-7',
            '0x1.0dcce8909bdbdp-9',),
    ),
    ('3,1', 'Lp(2)', 'Lp(30)'): dict(
        indicator=(
            '0x1.99ad86a5cddd5p+1', '0x1.bb690aca1a99fp+0',
            '0x1.dfeb993a992e3p-1', '0x1.03b7deeb62c71p-1',
            '0x1.191a6b4a39806p-2',),
        default=(
            '0x1.99ad86a5cddd5p+1', '0x1.bb690aca1a99fp+0',
            '0x1.dfeb993a992e3p-1', '0x1.03b7deeb62c71p-1',
            '0x1.191a6b4a39806p-2', '0x1.8899b42f2b0c5p+2',
            '0x1.a8ed3f9289b8fp+1', '0x1.cbea317cdc72dp+0',
            '0x1.f1c8a5088b54ap-1', '0x1.0d62a9fa77ddcp-1',
            '0x1.dc933e926645fp-1', '0x1.01e870221f0fbp-1',
            '0x1.1724d3e5ffdbfp-2', '0x1.2e20d838cbe3fp-3',
            '0x1.4701588bda906p-4',),
    ),
    ('3,1', 'L1', 'Lp(1.5)'): dict(
        indicator=(
            'inf', 'inf', 'inf', 'inf', 'inf',),
        default=(
            'inf', 'inf', 'inf', 'inf', 'inf', 'inf', 'inf', 'inf', 'inf',
            'inf', 'inf', 'inf', 'inf', 'inf', 'inf',),
    ),
    ('3,1', 'L1', 'Lp(3)'): dict(
        indicator=(
            '0x1.8a980beba7625p+4', '0x1.540cfd6fd09f9p+2',
            '0x1.250bfe1b07c46p+0', '0x1.f9148a23659c9p-3',
            '0x1.b343d3c252b6fp-5',),
        default=(
            '0x1.8a980beba7625p+4', '0x1.540cfd6fd09f9p+2',
            '0x1.250bfe1b07c46p+0', '0x1.f9148a23659c9p-3',
            '0x1.b343d3c252b6fp-5', '0x1.ef5a155020081p+4',
            '0x1.aae19df14c8cfp+2', '0x1.6fe00ae99f71cp+0',
            '0x1.3d06740a527f8p-2', '0x1.11343c1f8d264p-4',
            '0x1.2c42eec65e196p+0', '0x1.02c1ea1f74536p-2',
            '0x1.bdfb1a579f676p-5', '0x1.8055ac8307ce3p-7',
            '0x1.4b35a68ea95fap-9',),
    ),
    ('3,1', 'Lp(1.2)', 'Linf'): dict(
        indicator=(
            '0x1.8fffffffff6d9p+6', '0x1.3fffffffff8a3p+3',
            '0x1.ffffffffff442p-1', '0x1.999999999902dp-4',
            '0x1.47ae147ae0cecp-7',),
        default=(
            '0x1.8fffffffff6d9p+6', '0x1.3fffffffff8a3p+3',
            '0x1.ffffffffff442p-1', '0x1.999999999902dp-4',
            '0x1.47ae147ae0cecp-7', '0x1.b9cdbe0b4ab2ap+8',
            '0x1.617164d5d55bbp+5', '0x1.1ac11d77dde23p+2',
            '0x1.c4682f262ff9ep-2', '0x1.69ecf284f30d6p-5',
            '0x1.febd1368421b0p-1', '0x1.989742b9ce7bcp-4',
            '0x1.46df6894a52f9p-7', '0x1.057f86dd50f2ap-10',
            '0x1.a265a4954e516p-14',),
    ),
}
INDICATOR_NORMS = {
    'Lp(4/3)': ('0x1.09456549be1bep-15', '0x1.0000000000000p+0', '0x1.ee1b1b3d78c87p+14'),
    'Lp(2)': ('0x1.0624dd2f1a9fdp-10', '0x1.0000000000000p+0', '0x1.f40000000000ep+9'),
    'Lp(1.5)': ('0x1.a36e2eb1c4333p-14', '0x1.0000000000000p+0', '0x1.3880000000005p+13'),
    'Lp(2.5)': ('0x1.04e74cc73ee86p-8', '0x1.0000000000000p+0', '0x1.f66095d5c7f66p+7'),
    'Zyg(2,1)': ('0x1.5945ba6cbf55ap-9', '0x1.0000000000000p+0', '0x1.77233c5b99405p+11'),
    'Lp(3)': ('0x1.47ae147ae1483p-7', '0x1.0000000000000p+0', '0x1.9000000000003p+6'),
    'L1': ('0x1.0c6f7a0b5ed8fp-20', '0x1.0000000000000p+0', '0x1.e84800000000bp+19'),
    'Lp(1.2)': ('0x1.4f8b588e368efp-17', '0x1.0000000000000p+0', '0x1.86a000000000ep+16'),
}


@pytest.fixture(scope="module")
def youngs():
    return {name: make(f, label=name) for name, f in FAMILIES.items()}


@pytest.mark.parametrize("key", sorted(RATIOS), ids="@".join)
def test_norm_probe_ratios(youngs, key):
    ctx, an, bn = key
    A, B = youngs[an], youngs[bn]
    for which, family in (("indicator", [orc.TestFunction("indicator")]),
                          ("default", None)):
        rep = orc.norm_probe(A, B, CONTEXTS[ctx], family=family)
        got = tuple(float.hex(r) for _, _, r in rep.ratios)
        assert got == RATIOS[key][which], which


@pytest.mark.parametrize("name", sorted(INDICATOR_NORMS))
def test_indicator_norms(youngs, name):
    got = tuple(float.hex(young.luxemburg_norm(youngs[name],
                                               StepFn(np.array([r]), np.array([1.0]))))
                for r in INDICATOR_RADII)
    assert got == INDICATOR_NORMS[name]
