"""Golden values of the enlargement witness, compared with exact equality.

The literals were recorded from the scalar rung scan, except the 5C margins,
which were recorded once the enlarged profile's prefix integral took B's
exact zero tail.  Any rewrite of the witness construction must reproduce them
bit for bit: the rungs, the ratios, the constant, the 5C margin, the flags and
the enlarged profile itself.
"""

import numpy as np
import pytest

from orlicz_calc import families as fam, optimality as op, transforms as tr

from conftest import make

PROBE = np.geomspace(1e-60, 1e2, 32)

GOLDEN = {
    # test_07: D(t)/t^q* bounded below near zero, so the auxiliary profile
    "auxiliary": dict(
        a=fam.zygmund(1, 0, 1, 0),
        t_rungs=(0.16870239755710467, 1.1023444877186952e-15),
        tau_rungs=(0.7593961727688817, 1.4518655828230432e-10),
        selection_ratios=(10.022354776366083, 276.9185921105433),
        domination_ratios=(13.599143200855657, 277.2605513993612),
        constant=1.0,
        bound_margin=0.11251728106035927,
        flags=("auxiliary-profile", "witness-unconstructible"),
        young=(5.1641840224202813e-95, 5.523737259452189e-92,
               5.9221911711219485e-89, 6.365366669279215e-86,
               6.860215603186861e-83, 7.415095056368855e-80,
               8.040122516964643e-77, 8.747640366405156e-74,
               9.552829901942456e-71, 1.047453255105257e-67,
               1.1536362207788623e-64, 1.2768232900327695e-61,
               1.4208488960359871e-58, 1.590692539295738e-55,
               1.7929150452003142e-52, 2.0363018017967467e-49,
               2.3328333148702703e-46, 2.6991882519819178e-43,
               3.159141038500322e-40, 3.7475185390534965e-37,
               4.516992058850384e-34, 5.550288790493638e-31,
               6.983393159489636e-28, 1.9166213075484807e-22,
               2.1513757915058882e-20, 2.1537233363454627e-18,
               2.651374664903739e-15, 4.5558220828815944e-12,
               9.592229479631631e-09, 3.182895596357958e-05,
               0.7634043384333781, 251.18864315095806),
    ),
    # D(t)/t^q* vanishes at zero, so the ladder runs against D itself
    "direct": dict(
        a=fam.zygmund(1, -0.5, 1, 0.5),
        t_rungs=(2.2496826279973587e-05, 9.545909984170111e-23,
                 6.237541021162204e-57),
        tau_rungs=(0.0006127798249470425, 1.7299904556245476e-19,
                   1.5481520864379545e-52),
        selection_ratios=(10.134899100042002, 20.04555061822005,
                          35.036844653491194),
        domination_ratios=(11.483047765347951, 20.400564952070585,
                           35.2274701308059),
        constant=2.0,
        bound_margin=0.0765914029286424,
        flags=(),
        young=(5.1641840224202813e-95, 5.523737259452189e-92,
               3.2640343396684956e-87, 8.544945730550961e-85,
               8.597754844459786e-83, 7.415095056368855e-80,
               8.040122516964643e-77, 8.747640366405156e-74,
               9.552829901942456e-71, 1.047453255105257e-67,
               1.1536362207788623e-64, 1.2768232900327695e-61,
               1.4208488960359871e-58, 1.590692539295738e-55,
               1.7929150452003142e-52, 2.0363018017967467e-49,
               2.3328333148702703e-46, 2.6991882519819178e-43,
               3.159141038500322e-40, 1.3161322671584544e-36,
               2.1100823346380105e-33, 5.550288790493638e-31,
               6.983393159489636e-28, 9.052686899997716e-25,
               1.2199058823438371e-21, 1.7323771378858972e-18,
               2.651374664903739e-15, 4.5558220828815944e-12,
               2.8920546806178645e-08, 3.182895596357958e-05,
               0.7634043384333781, 251.18864315095806),
    ),
}

FIELDS = ("t_rungs", "tau_rungs", "selection_ratios", "domination_ratios",
          "constant", "bound_margin", "flags")


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def case(request, ctx31):
    golden = GOLDEN[request.param]
    B = make(fam.AsymptoticFamily(
        fam.piece(fam.PowerFactor(1.5), fam.LogFactor(-2)),
        fam.piece(fam.PowerFactor(1.2))))
    D = tr.a_gamma(make(golden["a"]), ctx31)
    return golden, op.witness_improvement(B, D, ctx31)


@pytest.mark.parametrize("field", FIELDS)
def test_witness_field(case, field):
    golden, w = case
    assert getattr(w, field) == golden[field]


def test_witness_profile(case):
    golden, w = case
    values = tuple(float(x) for x in w.young._monotone_eval(PROBE))
    assert values == golden["young"]
