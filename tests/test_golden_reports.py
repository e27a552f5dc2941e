"""Golden-report gate: sha256 of canonical report bytes at radial 8 x angular 32.

Each case runs one check on one field of the example library, or the
stationarity battery on a three-dimensional field, and hashes the
canonical JSON it serializes to (profiles, which are lists of rows, go
through the same canonical_json, and other dataclass results through
dataclasses.asdict). Any change to the quadrature engine or the checks that
moves a single report byte fails here. A digest is re-recorded only after
an intended change in the mathematics or its summation order, and only
where it moved, with no verdict, key, note or string moving; CHANGES.md
records each re-record with its leaf-level comparison against the previous
payloads. To record new digests, run this file as a script and paste its
output into DIGESTS.
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
    "branch-three-halves/stationarity": "2295c1d6f59da550fe58b4088dc94f9ff45cf4d5a38bb0c07b4e66a6a08f594e",
    "branch-three-halves/stationarity-ball": "a449b9b513a0cd5a529c18a3f3a44d5148c7cc2d0248d14422bb2a75cff9aab9",
    "branch-three-halves/carleman": "48589a0042e97fa0b8643e07f9a70aac0a5fa33e31e6161e9cf99dad5c80bc3b",
    "branch-three-halves/first-carleman": "1399a3ff01edf305b3166a196d3d1aad6941aa421fe4c9d05a83f125d870b498",
    "branch-three-halves/pre-carleman": "62daf268e246973381975aa481f50de7f3e21275d6ab596c4354dcc154eb1e82",
    "branch-three-halves/modified-carleman": "cf27b27e77b5bf17afee3f61c178626d325fd9fb7b45be4c24e94164180c65d3",
    "branch-three-halves/caccioppoli": "dca13c0d705126dd7d739a55458a59d602ad3bdfcb3f3f11e0586d13372562b0",
    "branch-three-halves/deficit-profile": "29ebf548b699fc94338b23eb280565f70de6cb35c6f0431aaa34784e8f3b12cb",
    "branch-three-halves/frequency-identity": "a03da68165a10ec790c101c01f90ec3782ca8f735523beeb56e90110c6876615",
    "branch-three-halves/weiss-derivative": "9c2e597874ed60575de6bed6232d30c04f23c4e18d07fb1e4cd727a98df08882",
    "branch-three-halves/three-sphere": "48e06aab4599270015dda832b2f4fa08490bfb1d8d7081cd331cc2b1d45de037",
    "branch-three-halves/carleman-sweep": "e4219ca2ca816414584f636c4a12eb9b2a87596c22341d7265a1c87f8af2052e",
    "branch-three-halves/vanishing-order": "d5f18557ecac6eeb4997608b7919c7d14dd124ffb473ad1f30a324e089f39148",
    "branch-three-halves/vanishing-order-off-centre": "f81507ebcb1deacea9959a68a432d43b8a39f9ff292605cce7c7b9418d101624",
    "branch-three-halves/semicontinuity": "319b1eb1c9478417f0a45c4c17f22574b43e40de09a88cb80de87a14fc764a7c",
    "branch-three-halves/doubling": "c1d1a22e878317c86a722f0565ca152415e2b879674b0f08e6a64525c18593eb",
    "branch-three-halves/frequency-variants": "7164b841b0642913bc1b7e8c6a343ae07a96c927e67b89f5e13a676b5661977d",
    "harmonic-pair/stationarity": "b91b122e81de08e94052bb5055a0a514f9e1be5c8c52be120ea8b0d28c0f2fa4",
    "harmonic-pair/stationarity-ball": "74df7a69bbed50ed183b5386645b514cbdf25285a160e084dd0ce00c693bb20e",
    "harmonic-pair/carleman": "695c184a8e47f158f5866c97a00c449afb5e66c6e73bc437c36af7e9c274e46e",
    "harmonic-pair/first-carleman": "f88c180399c4e565745dee72eec04e97aa42d84e1fa6e2d7935b82704103ce5a",
    "harmonic-pair/pre-carleman": "e415d6e79958f491e647f0d9664da07936683f67a7181386415eac6ac94fbb36",
    "harmonic-pair/modified-carleman": "0df56507137efc6be8435a39ccba8e6fb8ca7906818750652f9ef9fb7fe809c8",
    "harmonic-pair/caccioppoli": "79905e5ea02f0e70181e87bf574402c9cf4d7300cb8bd8780dfa0a293af9a3c4",
    "harmonic-pair/deficit-profile": "94fb7e23f7e598e0cca7792406eb33ecdf7d537b3f9a8d7be8487753b541e82e",
    "harmonic-pair/frequency-identity": "20ce4136330e31b05260113192fbab4e4fbdb60b862d57ebfe93b865c86beae9",
    "harmonic-pair/weiss-derivative": "94e8dfc20fb2bc23ff6ec309b3b6bc35f9d36b6a754738f7fd81b2de3042366a",
    "harmonic-pair/three-sphere": "a12f56cf985a00be026962fbbcf8d3e430ccbb962aadc6a625ea060703bae70f",
    "harmonic-pair/carleman-sweep": "b13f8646d77c6cad381625264a92b94c50423dd53d66e6b220c35041d9be47ed",
    "harmonic-pair/vanishing-order": "9dfedaa6ccde8af6ce19ac203e8ff63b6f997c8bd89ebda73ab030677e7c576e",
    "harmonic-pair/vanishing-order-off-centre": "fb2528c993ec7eaf4f3afb28607bc4f3125e24d7f9e0ffc32e28d084530d156c",
    "harmonic-pair/semicontinuity": "37f1715d0f54ff440062a31b405ee076e5d2223e18269305025e6e3a8e4b7602",
    "harmonic-pair/doubling": "96687bce7e1e2b7ef46d5597b2b32b7377a2984d33aea8637f4132c44010d1df",
    "harmonic-pair/frequency-variants": "ebe6b9b7ffe87be430972ccfea5d6c47a7e14f4063994a7551b031c352c71ae9",
    "wound-s0/stationarity": "45007c333225f5c4fb06b5446f4893830324cbc1e1074230534f57d2e1b4cb06",
    "wound-s0/stationarity-ball": "d1a26fbcc2cdb01ce5ef3061b01a02892b7bf81e31b2dcef5cbb414440f6c6fa",
    "wound-s0/carleman": "8c9f90a19f210a02a172bfb7e3187fdd144e095ffb914c7b5bba5e8e131c0b7b",
    "wound-s0/first-carleman": "7c3d86e9170195fa48158fde31cb56cb53b350af59632a1cfc3ccbf57566bf11",
    "wound-s0/pre-carleman": "4fbda744a74671aad30b1c3f8030f9458ada7b035172bc44a3e3cef4f6dc6c37",
    "wound-s0/modified-carleman": "0f4f6460e508e325f794b1fed42a40a560881dd8eba35513c07d692821e09b8e",
    "wound-s0/caccioppoli": "f566c99eb8cec01dae0d403693f94d32fb81fcf551763a183829f4dd07c6119b",
    "wound-s0/deficit-profile": "28427f057d150e053cf8f9134da28afda715acb75d869d3e7aa9bfa6a77487c7",
    "wound-s0/frequency-identity": "11cff43b90c735b4726c0d31db1959acfc6c9093956c26f2c83effcbeb65c400",
    "wound-s0/weiss-derivative": "3e059cff2335ae80554e77e6f32566c3ad680ebabd4609f6f0d0a1e3e3d72577",
    "wound-s0/three-sphere": "75192ab547220ee8d55e2583e3b087f28838d9b5715d2640d939d1a8c7df0b7f",
    "wound-s0/carleman-sweep": "a59ddf208257dd87cd60cf3de0cbd44c7e2207d1b06aaf44f6648bcb1e31cee0",
    "wound-s0/vanishing-order": "0a8e51d8abdbd344b318b61e3b2f7856980267bfd0d88098454f57b9704cc788",
    "wound-s0/vanishing-order-off-centre": "3bed0a24e57e3cf7edd1e565428b52e1529e469cafc3e9082460e5ad7f6a4bfb",
    "wound-s0/semicontinuity": "1401274c698b7504bab5b3f1e60274891454b74a8862d25f650b074814aecc79",
    "wound-s0/doubling": "0c37a574f37b243d43c59a2c38cc9321ab2f258b5d790a8c70efbae3a5b24659",
    "wound-s0/frequency-variants": "e7e1a8ac70ba7322828e764864643528946a2e2b9d38373a5d3b6a3e91678d97",
    "wound-s0/construction-cert": "1b0f465f407a0b2b381831480af1a2730f4886fa1fa2636233fe4cd028a0aa08",
    "harmonic-3d/stationarity": "d33d001604420126ced9ae44b4596720ce0989c2dd1ddb34f63279d2a5887f4d",
    "branch-three-halves/frequency-profile-sharp-dyadic": "b5c3bd649889d254aa932b2c00508653732d8a44b2bc29c6a54892991d237536",
    "branch-three-halves/frequency-profile-linear-dyadic": "7571826c8a31e9915bd216c3549c2a00cc0affa6f1efed7c40e3d2e14c259659",
    "branch-three-halves/weiss-profile-dyadic": "da6c2e0ee4d8ead904c2585da0660ae9a425baf7cc4097f563a0848beb04c6f9",
    "branch-three-halves/frequency-profile-sharp-increasing": "17f30884e5f530ebace9a4d4ed5b9b480be286dc16eb944afda299e05541adb5",
    "branch-three-halves/frequency-profile-linear-increasing": "630c70759a7c38ea0b9ae590b571628c26c646c1806add3983a13aff2a970fb9",
    "branch-three-halves/weiss-profile-increasing": "357bf94579fe769f368e8007df02e45947ab765d05eaf4e78bc486cfddf19288",
    "branch-three-halves/doubling-4": "7f13464bbde2c0f0202b5dd5c71ea6909c045a2db73013b2327d8d48752605a5",
    "branch-three-halves/frequency-variants-wide": "b37d725d8a7dc1e6709a6b0bb1e62091ab229356ec68a42168a87fd4679be44d",
    "harmonic-pair/frequency-profile-sharp-dyadic": "c0d6d84882f5ff4e3a3337067d100538ec8c726050054b03857385a4bc80027c",
    "harmonic-pair/frequency-profile-linear-dyadic": "82e3b912addced75ef35c293ebd033a97026a0f48d221286c9996d28738343f5",
    "harmonic-pair/weiss-profile-dyadic": "dfb0117b418a927daed78bb46d8bbb927e70299f4cd45def2098260c4accb110",
    "harmonic-pair/frequency-profile-sharp-increasing": "2eb216e0924e8623ff19aaa021d6a7a5c1f8e9f34ee86819044599132890edd9",
    "harmonic-pair/frequency-profile-linear-increasing": "6eff2636b407df44d5d5555eb58983af5e2fec80e2a47827a9796c39c429f4b3",
    "harmonic-pair/weiss-profile-increasing": "7ba4fec38cfe006f9f35e9404700bd7922e3d55cf5624ec69bb2fcdd9e84a638",
    "harmonic-pair/doubling-4": "b8b541f644498eac401b213003af8188393ef1036eaeaaf7997dd04b725f344a",
    "harmonic-pair/frequency-variants-wide": "4f005b5232e24b176568d2a08d6253a8e03b9c2af3100f849f1a6d110d5da6d5",
    "wound-s0/frequency-profile-sharp-dyadic": "5f68d035c2e15e75bf270fb9c164fab2c8721dabbc57dda832f04380368fbfbf",
    "wound-s0/frequency-profile-linear-dyadic": "85a67a3071014e86e93adc00041857ac722141f600efe89f388a6b6d6ee96422",
    "wound-s0/weiss-profile-dyadic": "c53dd1a4770e27bbe0b57f381e09d6eac9065ed0dbc01f44a8cd2d3ce978a512",
    "wound-s0/frequency-profile-sharp-increasing": "ca67da39dd7dda3343108669d8e8fa975929556b3c0b711e479e5e1f2a0820ec",
    "wound-s0/frequency-profile-linear-increasing": "8c70dfc299a0da76adaebfbfebd48a74b0341d17e412ea6d77477b1a8b63d65c",
    "wound-s0/weiss-profile-increasing": "56ee2162414d64fc4941bdc437dbac7ce873158eaa5a082c8057b58cd5a4734d",
    "wound-s0/doubling-4": "513090c64963b0dca0471ec15b1ac269ac2871ccc9d136a6a5afef109a60f3fd",
    "wound-s0/frequency-variants-wide": "f1851450f3b0eaa6b2dfc8e5f19f1c6c176fe74241bc7aae0541fe60187f4f1a",
    "wound-deep/frequency-profile-sharp-dyadic": "0d0aad9c6edb481e08c009c87d16a87394821c5115e7bc30a420d49152d99ccc",
    "wound-deep/frequency-profile-linear-dyadic": "8e6d5d66c6a57da1b806950e1c93813af930d5e75cd725a2243a97fc2f464a28",
    "wound-deep/weiss-profile-dyadic": "7a20f70c2b74bea988c985fdb48e61621fc2a6d8e9bf7a5ebb0a479642caaf7c",
    "wound-deep/frequency-profile-sharp-increasing": "3546204338ceb1c76a462eb2a37c4a3e8d6aa8067f0a7d872a797b49046a07dc",
    "wound-deep/frequency-profile-linear-increasing": "4e7b33f795173d9344d3e53177b37e8803d8ce9830b971759347ebc245da97c2",
    "wound-deep/weiss-profile-increasing": "50da09d9999d5c21c1950886355db17934e79d9d8e37a028bd5eda1a1f27c391",
    "wound-deep/doubling-4": "a4658a82f6085a969257ddb2ce2802376f6dce54623e4d86415d661609deb937",
    "wound-deep/frequency-variants-wide": "61df4d17c0f48a01f0d38c6d5044836c466334a2c1d81a0d8562fb815ed6142b",
    "wound-capped/frequency-profile-sharp-dyadic": "1f3b5018af55ab77def426ed09ecef1ac5a9a9ba55ba45564fbea0c9488a7d1d",
    "wound-capped/frequency-profile-linear-dyadic": "4652b4caa8f8da2d0f4fec526ac8e7ff5a3f1b71d2df87c3665bfcf974acd1f2",
    "wound-capped/weiss-profile-dyadic": "8c9522b9be58b336fc9a1edca8f684d92a2607d9fa3212dbc76e5c5d4e5b8be3",
    "wound-capped/frequency-profile-sharp-increasing": "7025faae3aeb740cafcd1df0ad0bae7e117731cfba3a60087eb9a433b85e96b7",
    "wound-capped/frequency-profile-linear-increasing": "020eab922bd6b7e6c1f1c234436b2f3ef1282ea63e7ab905d6de2da962d1fabf",
    "wound-capped/weiss-profile-increasing": "ae28e283634068b0458d4045a9906e0c2a831ac282b24adf1de11e4bad9b170c",
    "wound-capped/doubling-4": "afa1505ed462030ddc8775bdf7aef7b5281721b18a21aa7fae8aae1997452180",
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
