"""Golden-report gate: sha256 of canonical report bytes at radial 8 x angular 32.

Each case runs one check on one field of the example library, or the
stationarity battery on a three-dimensional field, and hashes the
canonical JSON it serializes to (profiles, which are lists of rows, go
through the same canonical_json, and other dataclass results through
dataclasses.asdict). The digests were recorded before the multi-density
panel sweep landed; the stationarity-ball, three-sphere and carleman-sweep
ones before the two radial cutoff types were merged into RadialBump; and
the vanishing-order, semicontinuity, doubling, frequency-variant and
three-dimensional stationarity ones before the deformation battery was
built from affine data; the nested-radius ones (frequency and Weiss
profiles at dyadic and increasing radii, a four-level doubling ladder and
a wider variant pair, also on two wound fields of windings 2 and 3) before
several regions shared one panel sweep. The 42 digests of reports whose
ball integrals changed panels were re-recorded when a ball on a branch
point became one graded panel and any other ball one plain panel below
its outer geometric one; the leaf-level comparison is in CHANGES.md. The
harmonic-pair first-carleman digest was re-recorded when that check came to
share the weighted density of carleman_sides at eps = 0: chi (0 + main)
rounds its lhs_refined one ulp away from (chi |.|^2) / r^p. For report
schema 2, 87 of the 93 digests were re-recorded, in two steps with no
verdict moving: 82 when variational._leggauss came to polish numpy's nodes
by Newton steps (integrals moved in their last bits), then the 50 reports
that carry a format string, for "qvlab-report/2", the 18 two-sided ones
also for their second_route param and the 12 of those with closed-form
sides for lhs_closed_form and rhs_closed_form in place of lhs_refined and
rhs_refined (all three planar fields have known pieces); six profiles,
whose sums the polish left bit for bit, kept theirs. The 7 stationarity
digests were re-recorded when the battery came to contract four per-node
sheet moments in place of the per-sheet gradient arrays: only the outer
and inner pair values and the residuals built from them moved, by at most
3.6e-15 in absolute value; the Dirichlet energy on the support, the
threshold, the floor, the verdicts and the notes kept their bytes. Only in
three dimensions does the inner rotation generator differ from the outer
quarter turn R, so only the last case tells the two apart. The 38 digests
of reports whose integrals take a field's polar product grid
(branch-three-halves 15, wound-s0 14, wound-deep 7, wound-capped 2) were
re-recorded when branch and wound fields came to be evaluated there, with
trig per angle, powers per radius and the gradient rotated per angle
before its radial scale: each node's (r, theta) now comes from the rule's
radius and direction rather than from hypot and arctan2 of its
coordinates, and gradients round in another order. No verdict, note, key
or string moved; primary integrals moved by at most 2.7e-16 relative, and
only cancellation leaves by more (the leaf comparison is in CHANGES.md).
No harmonic, three-dimensional or off-centre digest moved. The 10
digests of carleman, first-carleman, pre-carleman, modified-carleman and
caccioppoli reports that moved were re-recorded when each weighted check
came to state its formula once, as one integrand of the radial moments
M = |f|^2, D = |Df|^2 and S = |Df . x - k f|^2 that quadrature and closed
form both read: the closed form's S = sum (s - k)^2 c r^(2 s) holds no
cancellation where r^2 R - 2 k r C + k^2 M did (lhs_closed_form moved by
at most 1.3e-15 relative), pre-carleman and modified-carleman form their
left sides from S, and caccioppoli reads chi_r and dchi_r at the rule's
radius in place of chi and grad_chi at the node (quadrature leaves moved
by at most 2.4e-16 relative, and the modified lhs near 3e-30, a
cancellation, by 1.6e-2). No verdict, key, note or string moved, and no
deficit digest moved. Any change to
the quadrature engine or the checks that moves a single report byte fails
here. To record new digests after an intended change in the mathematics,
run this file as a script and paste its output into DIGESTS.
"""

import dataclasses
import hashlib

import pytest

from qvlab import carleman, frequency, variational, weiss2d
from qvlab.fields import parse_field_spec
from qvlab.report import canonical_json

Q = variational.QuadratureSpec(radial_order=8, angular_nodes=32)
ORIGIN = (0.0, 0.0)

FIELDS = {
    "branch-three-halves": ("branch:3/2", 1.5),
    "harmonic-pair": ("harmonic:n2m2:x1;x2|2*x1*x2;x1^2-x2^2", 1.0),
    "wound-s0": ("wound:0,2,4,1.8", 1.0),
    "harmonic-3d": ("harmonic:n3m1:x1*x2|x3", 1.0),
    "wound-deep": ("wound:5,3,4,1.8", 0.5),
    "wound-capped": ("wound:3,3,4,1.8", 1.0 / 3.0),
}
PLANAR = ("branch-three-halves", "harmonic-pair", "wound-s0")
# nested-radius checks: the planar fields plus two wound fields whose balls
# take graded panels of grading 2 and 3
NESTED = PLANAR + ("wound-deep", "wound-capped")


def _checks(f, kappa):
    linear = carleman.linear_cutoff(0.1, 0.2, 0.4, 0.8)
    smoothed = carleman.smoothed_cutoff(0.05, 0.1, 0.3, 0.45)
    bent = carleman.build_phi_delta(0.1, 0.05, 0.4)
    ball_bump = variational.RadialBump(0.0, 0.2, 0.5, 0.8)
    return {
        "stationarity": lambda: variational.stationarity_battery(f, Q),
        "stationarity-ball": lambda: variational.stationarity_battery(f, Q, bump=ball_bump),
        "carleman": lambda: carleman.carleman_sides(
            f, carleman.WeightSpec(tau=1.5, eps=0.3), linear, Q),
        "first-carleman": lambda: carleman.first_carleman_sides(f, 1.25, smoothed, Q),
        "pre-carleman": lambda: carleman.pre_carleman_sides(f, 1.25, linear, Q),
        "modified-carleman": lambda: carleman.modified_carleman_sides(
            f, 1.5, bent, smoothed, Q),
        "caccioppoli": lambda: variational.caccioppoli_check(
            f, variational.DEFAULT_BATTERY_BUMP, Q),
        "deficit-profile": lambda: frequency.deficit_profile(f, ORIGIN, kappa, quad=Q),
        "frequency-identity": lambda: frequency.frequency_identity_check(
            f, ORIGIN, 0.2, 0.4, Q, nodes=4),
        "weiss-derivative": lambda: weiss2d.weiss_derivative_check(f, ORIGIN, kappa, 0.4, quad=Q),
        "three-sphere": lambda: carleman.three_sphere_check(f, ORIGIN, 0.05, 0.11, 0.24, 1.5, Q),
        "carleman-sweep": lambda: carleman.carleman_tau_sweep(
            f, (1.0, 2.0), (linear, smoothed), Q),
        "vanishing-order": lambda: frequency.vanishing_order(f, ORIGIN, quad=Q),
        "vanishing-order-off-centre": lambda: frequency.vanishing_order(
            f, (0.5, 0.0), r_max=0.1, quad=Q),
        "semicontinuity": lambda: frequency.semicontinuity_probe(f, ORIGIN, 0.3, Q),
        "doubling": lambda: carleman.doubling_check(f, ORIGIN, 0.25, kappa, Q),
        "frequency-variants": lambda: frequency.variant_agreement(f, ORIGIN, 0.3, Q),
    }


def _nested_checks(f, kappa):
    checks = {}
    for label, radii in (("dyadic", (0.4, 0.2, 0.1)), ("increasing", (0.15, 0.3, 0.45))):
        for variant in ("sharp", "linear"):
            checks["frequency-profile-%s-%s" % (variant, label)] = \
                lambda radii=radii, variant=variant: frequency.frequency_profile(
                    f, ORIGIN, radii, Q, variant)
        checks["weiss-profile-" + label] = \
            lambda radii=radii: weiss2d.weiss_profile(f, ORIGIN, kappa, radii, Q)
    checks["doubling-4"] = lambda: carleman.doubling_check(f, ORIGIN, 0.25, kappa, Q, levels=4)
    checks["frequency-variants-wide"] = lambda: frequency.variant_agreement(f, ORIGIN, 0.45, Q)
    return checks


CHECKS = tuple(_checks(None, 1.0))
NESTED_CHECKS = tuple(_nested_checks(None, 1.0))

DIGESTS = {
    "branch-three-halves/stationarity": "9181f349fe1ccb4969cec50e65d59a3351b8ad7ad695295d9ad7fa557fa26926",
    "branch-three-halves/stationarity-ball": "dcf37f860ec79407fcece8e3a0d01da33b6bbc3b7c5da531f903d7f6153dc9ca",
    "branch-three-halves/carleman": "709490f9042ef0ee84b37e2b515842f18e71e456ba716abd5545a982959f78ed",
    "branch-three-halves/first-carleman": "3f47f3908f408bcdef5c99c9b7ae6d0c72758ea442035b85bfbfc5252ef7c67e",
    "branch-three-halves/pre-carleman": "40bdf9ac0512619317f47a6fa369d6802e917da2634a0ca784bf158c51818f3f",
    "branch-three-halves/modified-carleman": "9966c07b5c1b120e7d0f5891d0e7ab40932216c97ae164d95151f61a08d558a9",
    "branch-three-halves/caccioppoli": "c1d4a51d4cc98597c8a7132b12634668891e88aae9145cd709cfba66b55a8176",
    "branch-three-halves/deficit-profile": "b74614391edf58c4866204254a054ab0a8116be44cf6656dfc4b526fd25f2a30",
    "branch-three-halves/frequency-identity": "a03da68165a10ec790c101c01f90ec3782ca8f735523beeb56e90110c6876615",
    "branch-three-halves/weiss-derivative": "6e029c8ea093e9b7835bcd92e5fb077cddd6c8b229d4feb55126f19d823b3b59",
    "branch-three-halves/three-sphere": "4fe2f69ed873e40311f8466ee56f3cdaf124315bdc1b0c2c76edc8b788342b2b",
    "branch-three-halves/carleman-sweep": "b446f5e00f4758e7a7adac4734c319d80e805d6161ccd065d5bf74b8b280b2d5",
    "branch-three-halves/vanishing-order": "c5cd18fa8eae780f7ffc4135d30b020f7748c8f50b9beb7ecd5daf145983e5e4",
    "branch-three-halves/vanishing-order-off-centre": "91c31f977d239646daec8d5abe91b580d4035fa480e77089220f5c2e2db57870",
    "branch-three-halves/semicontinuity": "9c5587c2574bcf27c1c7b68e5aea1f26e7d4b93f0b2dfe1cb52b6c9d5dc3fd8f",
    "branch-three-halves/doubling": "112ae81f22f43efa461e313df0a313674fa00bf3af8b8bf7789e815f5a920df3",
    "branch-three-halves/frequency-variants": "dfcc364be4c1e03356089bd67533f5d23e9451015ebde6894b05d4560ac5144b",
    "harmonic-pair/stationarity": "f7fd1de975c62b652c27522008f35f776dba3b4f04617409e0426e2955e484c0",
    "harmonic-pair/stationarity-ball": "9d2a6af60b24d7974abd4763f2c07e6545f8be48535a2b2767f8dd7b46e97e82",
    "harmonic-pair/carleman": "695c184a8e47f158f5866c97a00c449afb5e66c6e73bc437c36af7e9c274e46e",
    "harmonic-pair/first-carleman": "f88c180399c4e565745dee72eec04e97aa42d84e1fa6e2d7935b82704103ce5a",
    "harmonic-pair/pre-carleman": "36de9aec1a32b45d4921e12007739f90a104b720d64cce98427d4a95249f10c0",
    "harmonic-pair/modified-carleman": "f2c60f04fb0842fd01cda263a2d63280da2f0fd56ffb9761edf865489e4ae0b2",
    "harmonic-pair/caccioppoli": "79905e5ea02f0e70181e87bf574402c9cf4d7300cb8bd8780dfa0a293af9a3c4",
    "harmonic-pair/deficit-profile": "94fb7e23f7e598e0cca7792406eb33ecdf7d537b3f9a8d7be8487753b541e82e",
    "harmonic-pair/frequency-identity": "20ce4136330e31b05260113192fbab4e4fbdb60b862d57ebfe93b865c86beae9",
    "harmonic-pair/weiss-derivative": "1b5e4b6a8c3d09e84bf0b866e6d7fc8242043663e138f5397e798faa61ed6a9a",
    "harmonic-pair/three-sphere": "2950bb24a109c59b29172928b6abec87cb34fb7237ed10dd2d34033592721529",
    "harmonic-pair/carleman-sweep": "d4365d2f8d04f1e5428a181520098f02dd254b8d77f8f2b3b430f771a7cd6a2e",
    "harmonic-pair/vanishing-order": "9dfedaa6ccde8af6ce19ac203e8ff63b6f997c8bd89ebda73ab030677e7c576e",
    "harmonic-pair/vanishing-order-off-centre": "0f8f35297d39e35fcf7f0255d129240365bf1bf6ed835e3f27fe3fc9761f9746",
    "harmonic-pair/semicontinuity": "a2e53a980fbff9b4ffcc27ddbf90e37f4e1098111086b6f17d897975db68fd3f",
    "harmonic-pair/doubling": "96687bce7e1e2b7ef46d5597b2b32b7377a2984d33aea8637f4132c44010d1df",
    "harmonic-pair/frequency-variants": "ebe6b9b7ffe87be430972ccfea5d6c47a7e14f4063994a7551b031c352c71ae9",
    "wound-s0/stationarity": "c0c4fec0d4ce7689dde5916121cff28951505755ab91f77073e294b4b737b632",
    "wound-s0/stationarity-ball": "96066c487faeadf1ce13cf229ce32b98e354b2bcb7a70c24d25a3c39d5394d85",
    "wound-s0/carleman": "8c9f90a19f210a02a172bfb7e3187fdd144e095ffb914c7b5bba5e8e131c0b7b",
    "wound-s0/first-carleman": "7c3d86e9170195fa48158fde31cb56cb53b350af59632a1cfc3ccbf57566bf11",
    "wound-s0/pre-carleman": "a2c962e49a2c3458e1b7d344e80b2ba334b4fd8d03de318c78706160b4dfc7d3",
    "wound-s0/modified-carleman": "eb4e5673fd7d93f853e9005f3c355843d0f033fa1470cf6c34b49b16c56d20f2",
    "wound-s0/caccioppoli": "f566c99eb8cec01dae0d403693f94d32fb81fcf551763a183829f4dd07c6119b",
    "wound-s0/deficit-profile": "f9843b9268f0257d9d8a7d635c19abb91bf15ecdb922412acb6767580e0ec5df",
    "wound-s0/frequency-identity": "11cff43b90c735b4726c0d31db1959acfc6c9093956c26f2c83effcbeb65c400",
    "wound-s0/weiss-derivative": "3e059cff2335ae80554e77e6f32566c3ad680ebabd4609f6f0d0a1e3e3d72577",
    "wound-s0/three-sphere": "bfef1c03f32b3fd404800c7d1edbf80be11daf76c0e5f69d8f942c4fe5902bc2",
    "wound-s0/carleman-sweep": "d2bd847012206fbf979cf5060312cc0d6557ab45a400c0eb713c6213bd372f2c",
    "wound-s0/vanishing-order": "2eaf03420a3e653b274ed0952a27ae5ca9713bef5100f8f2e399e395e25b2ca1",
    "wound-s0/vanishing-order-off-centre": "3bed0a24e57e3cf7edd1e565428b52e1529e469cafc3e9082460e5ad7f6a4bfb",
    "wound-s0/semicontinuity": "b44826162997537311d2e8e1fe3c95272f3985ed62844efe2dacee460bbf6865",
    "wound-s0/doubling": "0c37a574f37b243d43c59a2c38cc9321ab2f258b5d790a8c70efbae3a5b24659",
    "wound-s0/frequency-variants": "d39505a8d871e0ad18b1d21534545a69f66d99e02832044e79bb91ffc9704ecd",
    "wound-s0/construction-cert": "6f581ccd0b2e6760a7f1f25511f6b31bc2e18990c34710cc56488823602a9bfe",
    "harmonic-3d/stationarity": "0f23215ebba7c91455611e430d8e1ab2691bc4d63bcfe499c38f736f751789c4",
    "branch-three-halves/frequency-profile-sharp-dyadic": "b5c3bd649889d254aa932b2c00508653732d8a44b2bc29c6a54892991d237536",
    "branch-three-halves/frequency-profile-linear-dyadic": "7571826c8a31e9915bd216c3549c2a00cc0affa6f1efed7c40e3d2e14c259659",
    "branch-three-halves/weiss-profile-dyadic": "da6c2e0ee4d8ead904c2585da0660ae9a425baf7cc4097f563a0848beb04c6f9",
    "branch-three-halves/frequency-profile-sharp-increasing": "138a813d01a01497feaece8944678806ae138299f986ea29ed8f1e5f393fe836",
    "branch-three-halves/frequency-profile-linear-increasing": "4037c9044b5eb80ce95c399f8f5be558eb546ac5168c160640f141ca5d6c9814",
    "branch-three-halves/weiss-profile-increasing": "9a6b59a810e488ccf5198399c168afa90ffa96ce7f46e4500846f102ff9c7688",
    "branch-three-halves/doubling-4": "007c54fcdf8b4bacea8561c8e8442b3e2b603052e882347d481b58fc4a9957f2",
    "branch-three-halves/frequency-variants-wide": "a887ac2366f18def3c0a24d25e8d2c049d0f7b51146dde17f30763ab0085f583",
    "harmonic-pair/frequency-profile-sharp-dyadic": "31f3f3b61102d41765845061ab8abbb5fcaf54a58bb241feae5fe02384debf3d",
    "harmonic-pair/frequency-profile-linear-dyadic": "91834784d3a74ee0461007a147abc1198494f8baa6ae8bee26eb66c2b6dd91c5",
    "harmonic-pair/weiss-profile-dyadic": "9b7631c3d0cef355898c4aff0448c647caa16866653f7e94860aeb9ce8292cd3",
    "harmonic-pair/frequency-profile-sharp-increasing": "2eb216e0924e8623ff19aaa021d6a7a5c1f8e9f34ee86819044599132890edd9",
    "harmonic-pair/frequency-profile-linear-increasing": "ce16363072ac8885ff0a216901bf552b91ecaaf1f6942840f5305464da15a8fa",
    "harmonic-pair/weiss-profile-increasing": "d6abd34dd37872592d1582ead9dc5640c4e1a534558efe7f5375e618f8f4cc19",
    "harmonic-pair/doubling-4": "c0dd794d2b4a1e1d350c7f57d18a0a22c728742a1e62673b7077970c401df4b9",
    "harmonic-pair/frequency-variants-wide": "4f005b5232e24b176568d2a08d6253a8e03b9c2af3100f849f1a6d110d5da6d5",
    "wound-s0/frequency-profile-sharp-dyadic": "af87cc3cdc8042d0b537f1789a6a28b355b19b7528cbf5aa8e3a72a6c077820b",
    "wound-s0/frequency-profile-linear-dyadic": "b510f8e19d229b700ddceb9ee0521f03845828c8ad2bf6609226d1daa0a454ab",
    "wound-s0/weiss-profile-dyadic": "b50e30bca0facd8f47468d42e9d8b0ab0077628e2730f67e40c61cfb8d34f228",
    "wound-s0/frequency-profile-sharp-increasing": "b5bf9fd8ba7e91d561ce0697d545b60077cebafc8ce234dada4983237ec85a9c",
    "wound-s0/frequency-profile-linear-increasing": "acfc00ff132a549341e9b1484c8e047ec271bf0c9063a19ec8b4e762f17afdff",
    "wound-s0/weiss-profile-increasing": "08fe2e82f49d30d799082340d72d876efda642b9e136066fc312a242cdc22bd8",
    "wound-s0/doubling-4": "513090c64963b0dca0471ec15b1ac269ac2871ccc9d136a6a5afef109a60f3fd",
    "wound-s0/frequency-variants-wide": "5e547f1a45e2cf40829df61a0ca4b9f0b145d482698c4cfae759c0dd7a29975a",
    "wound-deep/frequency-profile-sharp-dyadic": "6b29dfc91a867da4af36a9072ab970820c132243992618cbf5c19e97915d1476",
    "wound-deep/frequency-profile-linear-dyadic": "489390656aebbe63a9d6339b7e415769365af8ecab303e489b0a195642e287db",
    "wound-deep/weiss-profile-dyadic": "008de96905f58a7a04112e70e2cbbb95f94fce23ff53ddaf5c77e61e768d9ecc",
    "wound-deep/frequency-profile-sharp-increasing": "3da910dfb29f0b1e4b673f268594ac30de89109ab848d1bdd8f96cf36b3802c5",
    "wound-deep/frequency-profile-linear-increasing": "db5717cd9e053c723f2a5e02805004177950f583099b2e6b44f1cf08ee974d8f",
    "wound-deep/weiss-profile-increasing": "934fba2d315cefe5fb1c8bd3a7d487639a7f19a341608169a4f8ccc8e5367c00",
    "wound-deep/doubling-4": "f17327c03535ed7180649b7139790f52f992cf48fefe64576165a73a8fab4088",
    "wound-deep/frequency-variants-wide": "e7e9077479798a97ae0aa7eb3f271efcd725ff81c171cba751c69878c85a4de0",
    "wound-capped/frequency-profile-sharp-dyadic": "1f3b5018af55ab77def426ed09ecef1ac5a9a9ba55ba45564fbea0c9488a7d1d",
    "wound-capped/frequency-profile-linear-dyadic": "f88531ee623136c1cbdddfc0aacb8d681b3199bd020d5bc5ea5456d4e245902e",
    "wound-capped/weiss-profile-dyadic": "8c9522b9be58b336fc9a1edca8f684d92a2607d9fa3212dbc76e5c5d4e5b8be3",
    "wound-capped/frequency-profile-sharp-increasing": "210e0d66606fd52a2f0d163f46a75cdb5e9de74450f2b63b8ad52afe4f60db92",
    "wound-capped/frequency-profile-linear-increasing": "ff7367ba20f9d5be06fb5f73625db49b1970e14b60e8fd7d119fb2142209cf41",
    "wound-capped/weiss-profile-increasing": "c6e54714262cfbc6ab59530662975d9bdca05579f1753e0d7fccb577e48c299a",
    "wound-capped/doubling-4": "09efb0bb6ace6eafc889d1359d0d431462bf4cfbe8a8dbc0ded8e6fe6c25757a",
    "wound-capped/frequency-variants-wide": "097c516a0e3b07df59f81606f97258dae948038838e32d668f65134b2de5262a",
}

_FIELD_CACHE = {}


def _field(name):
    if name not in _FIELD_CACHE:
        _FIELD_CACHE[name] = parse_field_spec(FIELDS[name][0])
    return _FIELD_CACHE[name]


def _digest(field_name, check):
    f = _field(field_name)
    if check == "construction-cert":
        payload = f.construction_cert
    else:
        kappa = FIELDS[field_name][1]
        checks = {**_checks(f, kappa), **_nested_checks(f, kappa)}
        result = checks[check]()
        if hasattr(result, "to_dict"):
            payload = result.to_dict()
        elif dataclasses.is_dataclass(result):
            payload = dataclasses.asdict(result)
        else:
            payload = result
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


CASES = [(name, check) for name in PLANAR for check in CHECKS] + \
    [("wound-s0", "construction-cert"), ("harmonic-3d", "stationarity")] + \
    [(name, check) for name in NESTED for check in NESTED_CHECKS]


@pytest.mark.parametrize("field_name,check", CASES)
def test_golden_report_bytes(field_name, check):
    assert _digest(field_name, check) == DIGESTS["%s/%s" % (field_name, check)]


if __name__ == "__main__":
    for field_name, check in CASES:
        print('    "%s/%s": "%s",' % (field_name, check, _digest(field_name, check)))
