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
three dimensions does the inner rotation
generator differ from the outer quarter turn R, so only the last case
tells the two apart. Any change to the quadrature engine or the checks
that moves a single report byte fails here. To record new digests after
an intended change in the mathematics, run this file as a script and paste
its output into DIGESTS.
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
    "branch-three-halves/stationarity": "7b8a4565d62573671876bcc2e9c13939b670f2eb1726050c03ad56c3e1b39054",
    "branch-three-halves/stationarity-ball": "bd15aec0925890490b1e934f026ba7c2f57fc37c460eddc081c1efb808c32c7c",
    "branch-three-halves/carleman": "926eb92e1ba04e34617cb4cdd32b82798cc4730a8db4a0b478b06db175e8ece2",
    "branch-three-halves/first-carleman": "6f7e2ea9540dc651cb6abb3cea857e3570cf6cc563f83d65b312ca808faa8e71",
    "branch-three-halves/pre-carleman": "d385cc7d7fa1d0370b0ecf51decc216c05e9e045fa1d7738538d041f54262fc9",
    "branch-three-halves/modified-carleman": "ac1adf1142eef5253dfeeb27b44d74ed96fa94b32e5b8ad3efc94ad92543e6b1",
    "branch-three-halves/caccioppoli": "dca13c0d705126dd7d739a55458a59d602ad3bdfcb3f3f11e0586d13372562b0",
    "branch-three-halves/deficit-profile": "4a7071e32decd813c98093804092f1525226b0d47329708535cd04836e716e21",
    "branch-three-halves/frequency-identity": "e27e3e842b5268e06e85ccf37781cf4387bdcddbe65d8dee4bdcf52adb6fa84a",
    "branch-three-halves/weiss-derivative": "62558b2844328cd3a406ec985dbea89594b680eb36bcc9a85577044227a49458",
    "branch-three-halves/three-sphere": "4fe2f69ed873e40311f8466ee56f3cdaf124315bdc1b0c2c76edc8b788342b2b",
    "branch-three-halves/carleman-sweep": "69958c14cb30c74c30d89dad0f911b3fa04545660085e96a393b9071646f8c95",
    "branch-three-halves/vanishing-order": "c5cd18fa8eae780f7ffc4135d30b020f7748c8f50b9beb7ecd5daf145983e5e4",
    "branch-three-halves/vanishing-order-off-centre": "91c31f977d239646daec8d5abe91b580d4035fa480e77089220f5c2e2db57870",
    "branch-three-halves/semicontinuity": "9c5587c2574bcf27c1c7b68e5aea1f26e7d4b93f0b2dfe1cb52b6c9d5dc3fd8f",
    "branch-three-halves/doubling": "6c93b186643e2f5a1aff65588d846da3dc86611956f36adddabd3343610ab8a1",
    "branch-three-halves/frequency-variants": "dfcc364be4c1e03356089bd67533f5d23e9451015ebde6894b05d4560ac5144b",
    "harmonic-pair/stationarity": "f7fd1de975c62b652c27522008f35f776dba3b4f04617409e0426e2955e484c0",
    "harmonic-pair/stationarity-ball": "9d2a6af60b24d7974abd4763f2c07e6545f8be48535a2b2767f8dd7b46e97e82",
    "harmonic-pair/carleman": "dbdf1f23c8a39e83f56b825e7783a5668c334ca828df58ed36d0b459c3e40d90",
    "harmonic-pair/first-carleman": "82bcf71ebeeb9a1f032b1947462a5abf158b1cb2f09fbc0dffca792cdd402d3f",
    "harmonic-pair/pre-carleman": "32567c40df1966392495cab8ba32cb888774f623f7d209357dd651155d701661",
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
    "wound-s0/stationarity": "a8f52b365e8e4da898c07ee6425f6ed4087a5e083b66b72162491831a6990fce",
    "wound-s0/stationarity-ball": "535924cc86876c33f49538438fd5e7e1794d24c35f97cd409d84e1229add9512",
    "wound-s0/carleman": "914b866ea1c1d2d36a68a2a5df21c8cace01c1b6d89d333793900372e5d0d603",
    "wound-s0/first-carleman": "7c3d86e9170195fa48158fde31cb56cb53b350af59632a1cfc3ccbf57566bf11",
    "wound-s0/pre-carleman": "952e66e5376dab56bf0caf97896d70e8b63909a2bdf177882c96246c500c6cf8",
    "wound-s0/modified-carleman": "eb4e5673fd7d93f853e9005f3c355843d0f033fa1470cf6c34b49b16c56d20f2",
    "wound-s0/caccioppoli": "f7c21099ef01d240d3b230ecedd21db307ab954bf5ff1fe883914d3efc9117a9",
    "wound-s0/deficit-profile": "e0c44e9c6d81217b5a1f58b0aeaa4025210eda649ca2a5563f4b8faa0ad98858",
    "wound-s0/frequency-identity": "0929df349d2ff64b2fd4ebb012d5293325c595fdc9af43aca3abe824847ce13c",
    "wound-s0/weiss-derivative": "0bd26f9f5ca3750bd94711e726723118c80c3d462bfdde81355b5a3f9fa761ef",
    "wound-s0/three-sphere": "bfef1c03f32b3fd404800c7d1edbf80be11daf76c0e5f69d8f942c4fe5902bc2",
    "wound-s0/carleman-sweep": "a59ddf208257dd87cd60cf3de0cbd44c7e2207d1b06aaf44f6648bcb1e31cee0",
    "wound-s0/vanishing-order": "d4a4c6d4865e710a03d105fe4b37d8466a414fbc555ad61251db7447296c1b16",
    "wound-s0/vanishing-order-off-centre": "3bed0a24e57e3cf7edd1e565428b52e1529e469cafc3e9082460e5ad7f6a4bfb",
    "wound-s0/semicontinuity": "b44826162997537311d2e8e1fe3c95272f3985ed62844efe2dacee460bbf6865",
    "wound-s0/doubling": "0c37a574f37b243d43c59a2c38cc9321ab2f258b5d790a8c70efbae3a5b24659",
    "wound-s0/frequency-variants": "d39505a8d871e0ad18b1d21534545a69f66d99e02832044e79bb91ffc9704ecd",
    "wound-s0/construction-cert": "1b0f465f407a0b2b381831480af1a2730f4886fa1fa2636233fe4cd028a0aa08",
    "harmonic-3d/stationarity": "0f23215ebba7c91455611e430d8e1ab2691bc4d63bcfe499c38f736f751789c4",
    "branch-three-halves/frequency-profile-sharp-dyadic": "b5c3bd649889d254aa932b2c00508653732d8a44b2bc29c6a54892991d237536",
    "branch-three-halves/frequency-profile-linear-dyadic": "7571826c8a31e9915bd216c3549c2a00cc0affa6f1efed7c40e3d2e14c259659",
    "branch-three-halves/weiss-profile-dyadic": "da6c2e0ee4d8ead904c2585da0660ae9a425baf7cc4097f563a0848beb04c6f9",
    "branch-three-halves/frequency-profile-sharp-increasing": "67920f221cad6cc58d28a430ed36379548f9ed1af6c10185132bb8e81aa9eec4",
    "branch-three-halves/frequency-profile-linear-increasing": "7fd377c6902cceb813947d89fd23465b12de57e435af1684a26f5faee9a060c3",
    "branch-three-halves/weiss-profile-increasing": "83fa0e3e6e55afd2fa05696e1774dc5632c5c7e4d0a7775da9a161c323353923",
    "branch-three-halves/doubling-4": "9b469ed31ab9dcf244a9570af76a78e220c170272ef1ba3af0d817946951872b",
    "branch-three-halves/frequency-variants-wide": "506bb8f3fbb6f8afd6da69dc4adeecb5da2dc2174166c9db601b0a1a62d298c2",
    "harmonic-pair/frequency-profile-sharp-dyadic": "31f3f3b61102d41765845061ab8abbb5fcaf54a58bb241feae5fe02384debf3d",
    "harmonic-pair/frequency-profile-linear-dyadic": "91834784d3a74ee0461007a147abc1198494f8baa6ae8bee26eb66c2b6dd91c5",
    "harmonic-pair/weiss-profile-dyadic": "9b7631c3d0cef355898c4aff0448c647caa16866653f7e94860aeb9ce8292cd3",
    "harmonic-pair/frequency-profile-sharp-increasing": "2eb216e0924e8623ff19aaa021d6a7a5c1f8e9f34ee86819044599132890edd9",
    "harmonic-pair/frequency-profile-linear-increasing": "ce16363072ac8885ff0a216901bf552b91ecaaf1f6942840f5305464da15a8fa",
    "harmonic-pair/weiss-profile-increasing": "d6abd34dd37872592d1582ead9dc5640c4e1a534558efe7f5375e618f8f4cc19",
    "harmonic-pair/doubling-4": "c0dd794d2b4a1e1d350c7f57d18a0a22c728742a1e62673b7077970c401df4b9",
    "harmonic-pair/frequency-variants-wide": "4f005b5232e24b176568d2a08d6253a8e03b9c2af3100f849f1a6d110d5da6d5",
    "wound-s0/frequency-profile-sharp-dyadic": "5f68d035c2e15e75bf270fb9c164fab2c8721dabbc57dda832f04380368fbfbf",
    "wound-s0/frequency-profile-linear-dyadic": "b510f8e19d229b700ddceb9ee0521f03845828c8ad2bf6609226d1daa0a454ab",
    "wound-s0/weiss-profile-dyadic": "c53dd1a4770e27bbe0b57f381e09d6eac9065ed0dbc01f44a8cd2d3ce978a512",
    "wound-s0/frequency-profile-sharp-increasing": "b5bf9fd8ba7e91d561ce0697d545b60077cebafc8ce234dada4983237ec85a9c",
    "wound-s0/frequency-profile-linear-increasing": "e61baf57651552f91e003030692df9ccf91f5b56f1b95901eaab9af02b1973f5",
    "wound-s0/weiss-profile-increasing": "08fe2e82f49d30d799082340d72d876efda642b9e136066fc312a242cdc22bd8",
    "wound-s0/doubling-4": "1f8097d3877fc2e026c5139e2b593d2204c489e44f75e2e5c793a47857d04c4b",
    "wound-s0/frequency-variants-wide": "ee6544583a36ff7fea1cb06a7221b507f78a9ba00d21e4ff693c5878b76ef461",
    "wound-deep/frequency-profile-sharp-dyadic": "8227c659b62275e7bbef603cac606a658ffa38f886c18c80ee84a9fd3f28f4e4",
    "wound-deep/frequency-profile-linear-dyadic": "489390656aebbe63a9d6339b7e415769365af8ecab303e489b0a195642e287db",
    "wound-deep/weiss-profile-dyadic": "695a53556365f5a2173d40aff15d7e25d10b82ea14a9cce8d87f479f318f109f",
    "wound-deep/frequency-profile-sharp-increasing": "7083b6db826ae54c84d8707691e20b051614ba1627147c133c9f7507b16407c0",
    "wound-deep/frequency-profile-linear-increasing": "7eeaba99a7013c4f61c947745cfa96b714e9147beca7883615aa48ea26414a8a",
    "wound-deep/weiss-profile-increasing": "ab1d0711e61cb9279dcf3361456e8115056a5de854b254d70e9f5a442628ea88",
    "wound-deep/doubling-4": "7e2a533384765a2766de3602f49be8e6eca9cc839c8865dc83de2c413feddc66",
    "wound-deep/frequency-variants-wide": "61df4d17c0f48a01f0d38c6d5044836c466334a2c1d81a0d8562fb815ed6142b",
    "wound-capped/frequency-profile-sharp-dyadic": "f778d078c9100fe7e3583fa12c904bc74d27937d90a8cea593715752ef6ce688",
    "wound-capped/frequency-profile-linear-dyadic": "f88531ee623136c1cbdddfc0aacb8d681b3199bd020d5bc5ea5456d4e245902e",
    "wound-capped/weiss-profile-dyadic": "55b8d06f3a770f76338239cb7bef05cff7d66b8fd2f70ee7f827eeec78056699",
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
