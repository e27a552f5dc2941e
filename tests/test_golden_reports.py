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
a wider variant pair, also on two wound fields whose balls refine deep or
to the subdivision cap) before several regions shared one panel sweep. Only in
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
# nested-radius checks: the planar fields plus two wound fields whose ball
# energies refine deep (54 of 64 levels at radius 0.4) or to the cap
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
    "branch-three-halves/stationarity": "8783d2c3f65aaa829701f5190da5f867efc68d6b31b66e257cdc315f4e510cef",
    "branch-three-halves/stationarity-ball": "aecb4e9b179f6669843ffd970b9777addbdb8ff1a8fd526370be27055981bb8f",
    "branch-three-halves/carleman": "2462de26283d896cdfe666e930286a176661ed769d2807895f20a32c1b918cae",
    "branch-three-halves/first-carleman": "166988b0671a482860de54b10bed78c0b4194febe2b886a9bde0d4cea6d0fe3f",
    "branch-three-halves/pre-carleman": "13c753d14c3e80d86c817134c5a57502cd8a355eb7d9a36032906006ac150b52",
    "branch-three-halves/modified-carleman": "2287b43f67cbf70207f926743c3094b3b621a63669938668fa48188aab90a76b",
    "branch-three-halves/caccioppoli": "b71eab07fe6d9532dc0ff76b36186dae9cb0f0b1f9968c127780e29fe7ef4e14",
    "branch-three-halves/deficit-profile": "4a7071e32decd813c98093804092f1525226b0d47329708535cd04836e716e21",
    "branch-three-halves/frequency-identity": "a32950c7a108caccc8f9a517c0588b262800b5019b65937b74543e456234f0de",
    "branch-three-halves/weiss-derivative": "b9765d3468e505c9ea25ac4a8f15dcf9800374b42b880c1c3a7d210f5754ddc0",
    "branch-three-halves/three-sphere": "894db89627b84f65bfa792fd25c0e4ef1c5e9022cdd59b4656ba0c4965cbeab0",
    "branch-three-halves/carleman-sweep": "105e5d5a1f7698385849405bb9c649228fe9598d686480cb523012cc04ce9bd0",
    "harmonic-pair/stationarity": "d9577be36448b1267d720e783144901ac8a19b548304a944d3404b1884e4e6e5",
    "harmonic-pair/stationarity-ball": "8e3384ed0f2c4e4b41598bd5d93792c59b33c69c329d10e2c94042a3adb5c149",
    "harmonic-pair/carleman": "58d2cbaa5f4ee8e0fe3a71ac966cf6a8e414a16d6d8797c99ea47d1d821f40e4",
    "harmonic-pair/first-carleman": "292a56e6644fba9e6916753b34f706f870b156cdc91a262e60d372b296cac51e",
    "harmonic-pair/pre-carleman": "bd267530fe61b5dcf58251aa72ed02d5de6995108c520bc398e50d6a9095ca93",
    "harmonic-pair/modified-carleman": "15493e939cac8adf53572f7f3f74b08ae7297d771298bce8ca8f2a548828bbfb",
    "harmonic-pair/caccioppoli": "405af2259a212bcc8b4770f1db617050b527e277b87d68cf0022e9e0221890d4",
    "harmonic-pair/deficit-profile": "561b5d2ce407639d9ed556ff4c67f1ba05aaca2c9f4b64063992524ba1627e49",
    "harmonic-pair/frequency-identity": "8f810c47b2ed12505d99cdc35369b390590341607e9f9321be75b3478a14542d",
    "harmonic-pair/weiss-derivative": "4bc63d31d86033db77d9ca4820bf8e0065a1c6b6fadf44a13e3105a89861bb90",
    "harmonic-pair/three-sphere": "cebde0e86707a437a273ce9d182aedf2c33063ffd0088a1f7355da6712253119",
    "harmonic-pair/carleman-sweep": "7d54ea27d69e1070f433cab4a68780700396787117e223d405e0677ac698e0e1",
    "wound-s0/stationarity": "04e0d2e155f1595b5f3944acb9677c286ace0a26bd264bf2fa30f2bb85acf6c4",
    "wound-s0/stationarity-ball": "8f88c27c3479cb282b9f0cd57e12711a8ebb12914c54836236f7fda4099abc2c",
    "wound-s0/carleman": "2096d87e857aa20e5b86c80d938ba5851d832cc96ed0331268756e3c3959a389",
    "wound-s0/first-carleman": "fb86163cfd9025c7b11b4e15579da47b5ab2012961450d10140612875ae0fbd5",
    "wound-s0/pre-carleman": "70abbee581b985d3cfa256b6ffb21a39b871dc8abfa1cff643544899ef8062e7",
    "wound-s0/modified-carleman": "e12e244467ee8adf96619aa1008232e34c25d66ab364429b6937f42447315028",
    "wound-s0/caccioppoli": "d45acf697b7734be0e1a0e913274f04522d7416a7b82189fe4b8df7b265a3e1b",
    "wound-s0/deficit-profile": "00234b091c54698d0fca620856d941db5364bfd7fbc219e444b4bf33579bfc48",
    "wound-s0/frequency-identity": "137aeae13fde86da9b4df4d685fb86ada40e62cd731101c619a607542ebcde23",
    "wound-s0/weiss-derivative": "7d630a208d5e59021cc473c97ade3ec3d547f3bab03562bf0f532fd222a3a2ad",
    "wound-s0/three-sphere": "2529a98beb019e78ee127dcfffdadacf02f6e142c0a433411205935ca70ace43",
    "wound-s0/carleman-sweep": "95bd01ee49b12108a27c11e2a192f2f20369427d9740870fdd337e15797ae7de",
    "wound-s0/construction-cert": "b33cde025d0b1c06351ce1e5421c383b5d7c2b85049bc718ea78f6eb71332455",
    "branch-three-halves/vanishing-order": "b7fec545968b597ff90575b253227f9a58f67c73c288eec4bbaa3f50c4a38c27",
    "branch-three-halves/vanishing-order-off-centre": "59c9276adad692128c78abe377859afd181ff42bc4e0bdcf0945f16fcc487174",
    "branch-three-halves/semicontinuity": "1556608781c06664b6f16e8b93010fadd8017d4a43649b4e9c530dcb28c215b6",
    "branch-three-halves/doubling": "1d2d6de2e9b22590150412861f81cccffe6267211e7296bc2ab2f52a81626a7c",
    "branch-three-halves/frequency-variants": "9ca1f316ad15ad2849b49901d60dc235c910e90cbc2267f2e709e04e43cc9ab6",
    "harmonic-pair/vanishing-order": "1d3f26075f9d00b3c98556d0bc1a53a56e736efea1bb5faf0ad85818063b76e8",
    "harmonic-pair/vanishing-order-off-centre": "ae5b4789c4d48ab2862c989bbcdd782b911fadfe9bb9370474ba3263b3701d19",
    "harmonic-pair/semicontinuity": "885abd87a9950ab296493c8c29d582e47116ef03de6d515c4c49619ead3418b9",
    "harmonic-pair/doubling": "171ea552c2ecdcaa57bca6b54ffbb3a2737f924492c9cf021a6269695ed7b336",
    "harmonic-pair/frequency-variants": "cc2ce422132f5b2a97b6ff6aec815e7e0f41f161b656830d95908b8eb4486afb",
    "wound-s0/vanishing-order": "945c4a91bee82fc4c0dc2a66853af013a207ddc8ba1e65175b69fa35c1e8be50",
    "wound-s0/vanishing-order-off-centre": "c4e61b2ee1d76431c0dd08a74e1733facf2946c37149bd86df95e5254182c0e1",
    "wound-s0/semicontinuity": "af46218c0a988ee2a2307eae071b01647893839ef5dc497f02ace14da00c41f9",
    "wound-s0/doubling": "f2617ac8c2bc1077ac837c494af4abade0279eca5bd65339da1ac73843939caa",
    "wound-s0/frequency-variants": "7fbeb5dba76351a21c77b445927cfc358588054d6e40438586c53d6aa3dc9fa3",
    "harmonic-3d/stationarity": "b730c425a0ff85cfdd818f1e096b4733e1cf3c87b957cfbfb125c4d9cdba7a49",
    "branch-three-halves/frequency-profile-sharp-dyadic": "ae680987690e8013c82d1f1132b9794e76c2213f1a3c0e0d01a64c9bbcbb0593",
    "branch-three-halves/frequency-profile-linear-dyadic": "b85146b649fb61fcba6691df83bb95218b955e908b17ab452665a72711c0bbdb",
    "branch-three-halves/weiss-profile-dyadic": "1a1eb9b684334210b12697f263cd88d4dfaba052d3dd12528a71b71c356b8d9b",
    "branch-three-halves/frequency-profile-sharp-increasing": "26e344393e819d413e8db420607fdc848f53c03fec8df6241620bdead8186f46",
    "branch-three-halves/frequency-profile-linear-increasing": "a1b356ea47324cb633c8c45c3b52ef112d1e3014085240cc48d4ef2711471a3d",
    "branch-three-halves/weiss-profile-increasing": "a02bc8953dcc6902796a604a318202a3ce5542e7af4e6fc9742305bf339b5eb1",
    "branch-three-halves/doubling-4": "33eec63b328b996d921e21003b73ee3d7664dfb2d59ebd2f2c314f5e134ff69c",
    "branch-three-halves/frequency-variants-wide": "757a0457ed3b191d1b24fc7314edaf1edd2f249c631e020969d60442257ddf31",
    "harmonic-pair/frequency-profile-sharp-dyadic": "99f60a92e1787323b1fd68d97be455906babc7d31abe3d3bcd34c6ed0c5448f7",
    "harmonic-pair/frequency-profile-linear-dyadic": "d0b19d23e31be173d5b80e0c908c288a76c85ee2873b1bd50b6a17205bd7e889",
    "harmonic-pair/weiss-profile-dyadic": "25281ee8b2ed395e98deab85275c9cdeaf57e96edbc34e73dc8e41cc892ad9fe",
    "harmonic-pair/frequency-profile-sharp-increasing": "be9fc4e8cbba2d53b6371a45e794506962c62d01827b43823eab03672de43099",
    "harmonic-pair/frequency-profile-linear-increasing": "b0d90536d743305a1418249b5de41483cb248f12cc305d5f79d625933945ae97",
    "harmonic-pair/weiss-profile-increasing": "554c313d3c1c5ed85727fe72db637e80685b8202024c79b70e855c1b006d60ad",
    "harmonic-pair/doubling-4": "06aef59f73022baf6d47b76aaa1f824b34fe0f0b860dadf7fcedbfe8435d1388",
    "harmonic-pair/frequency-variants-wide": "d32ded431e8c73ff6541322acab82d319b7fe6237d91767fed997c1a539a91e2",
    "wound-s0/frequency-profile-sharp-dyadic": "c9fea73f7046acee7a9d3432e9b5327b19039ea43411a210dd03e386f6bf4392",
    "wound-s0/frequency-profile-linear-dyadic": "d0b965851180191fcb9beacbd9486e8dfdae088eff1e18a2d4d06cc3f221be52",
    "wound-s0/weiss-profile-dyadic": "b3fd86e582b6f0d3c385dd4bffd87d6ed4e962b3a17d1b3e8788c0a1db5cb579",
    "wound-s0/frequency-profile-sharp-increasing": "b34712543cf2bdde1f98419e36364d3392f6ba9038887335a8252489ca17d3f1",
    "wound-s0/frequency-profile-linear-increasing": "c885c325bc0c0e468e94b9a39ebad53b6b126b2d58ecf213c67196e37c5319a5",
    "wound-s0/weiss-profile-increasing": "56ee2162414d64fc4941bdc437dbac7ce873158eaa5a082c8057b58cd5a4734d",
    "wound-s0/doubling-4": "e40d98b08f52033662c5c06177c76f0ede8496b2bb1c705207cea0f98345f667",
    "wound-s0/frequency-variants-wide": "706a90f53b261177c132118d8fd1a2167256c58a56b1528e6e933aa5d98f12f0",
    "wound-deep/frequency-profile-sharp-dyadic": "0d0aad9c6edb481e08c009c87d16a87394821c5115e7bc30a420d49152d99ccc",
    "wound-deep/frequency-profile-linear-dyadic": "a331b5b28b47e2e44784c8384d525fc605d795f90c8d3edd94fd3f63def457ba",
    "wound-deep/weiss-profile-dyadic": "23fd7eead70c3d878985cf48392c4b3d124ee009e624f99dbc37ba92d2c77dbf",
    "wound-deep/frequency-profile-sharp-increasing": "298bccff7c07768e1d723a7d21b26777104ab1ef493c5afcda8e6ead9631c2d4",
    "wound-deep/frequency-profile-linear-increasing": "7e1d1eff00ce2df8c1eca000dbc2e47cf3346102523a22ae1898acfe8b193d25",
    "wound-deep/weiss-profile-increasing": "0f2d0be07c829a4a2d21a8f7a6a9d9c5c462c7e2213a3f13d61e1d98ddd02e14",
    "wound-deep/doubling-4": "76c8cfa736d9677fdc2a5e7f819b7d39ed06a8f60e0cfe229886cbac5dbc17d4",
    "wound-deep/frequency-variants-wide": "a919c9e27ec3fe5483295f9f37c61710b4402cb4e591754f08237549b6e73c35",
    "wound-capped/frequency-profile-sharp-dyadic": "536220a0878f0077c61d11032433743a3a3e25c166964e58f255b1e8ef5207e1",
    "wound-capped/frequency-profile-linear-dyadic": "05f9ca1089ec3fe527694e35cf141749c883ac1df2edcf2246ee4d31656693c5",
    "wound-capped/weiss-profile-dyadic": "871f5d69586dfe9ab75c644efb79ec4973355a5104963da0f48d1188614a6ee0",
    "wound-capped/frequency-profile-sharp-increasing": "4d03b64aa703586615cd04982a33c8260cc26535c6e818a69deaf3b08405678d",
    "wound-capped/frequency-profile-linear-increasing": "e1e6386e5d98cc9e61914cb3d8ba3a13651645dedbf9c2729b91852670397158",
    "wound-capped/weiss-profile-increasing": "3890263cd7fe021935c1eedaabb03868c8f8da1de791010dd7b3cae48bea3cec",
    "wound-capped/doubling-4": "bdd13b7e9be6c5295441ccf1f7f30fed5810ee534db8a70d13849ba66f3dd9ca",
    "wound-capped/frequency-variants-wide": "a033bca7be4fcd1a9318cf9158f812672e21fffbef60e6448d07180e2111cd3f",
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
