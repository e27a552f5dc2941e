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
rounds its lhs_refined one ulp away from (chi |.|^2) / r^p. Only in
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
    "branch-three-halves/stationarity": "8783d2c3f65aaa829701f5190da5f867efc68d6b31b66e257cdc315f4e510cef",
    "branch-three-halves/stationarity-ball": "e87e50c68c998322d471dfe949aad5e8f89de61cc86f64bed5a8543787482722",
    "branch-three-halves/carleman": "2462de26283d896cdfe666e930286a176661ed769d2807895f20a32c1b918cae",
    "branch-three-halves/first-carleman": "166988b0671a482860de54b10bed78c0b4194febe2b886a9bde0d4cea6d0fe3f",
    "branch-three-halves/pre-carleman": "13c753d14c3e80d86c817134c5a57502cd8a355eb7d9a36032906006ac150b52",
    "branch-three-halves/modified-carleman": "2287b43f67cbf70207f926743c3094b3b621a63669938668fa48188aab90a76b",
    "branch-three-halves/caccioppoli": "b71eab07fe6d9532dc0ff76b36186dae9cb0f0b1f9968c127780e29fe7ef4e14",
    "branch-three-halves/deficit-profile": "4a7071e32decd813c98093804092f1525226b0d47329708535cd04836e716e21",
    "branch-three-halves/frequency-identity": "4f9e4d360f3986c582b0844416168d514995f8c16d75dd619302d912bac69780",
    "branch-three-halves/weiss-derivative": "7b5f50955c5a0d3e1c32efbe86453e604eb7c45f3ca654b87e0a21699f51511f",
    "branch-three-halves/three-sphere": "894db89627b84f65bfa792fd25c0e4ef1c5e9022cdd59b4656ba0c4965cbeab0",
    "branch-three-halves/carleman-sweep": "105e5d5a1f7698385849405bb9c649228fe9598d686480cb523012cc04ce9bd0",
    "harmonic-pair/stationarity": "d9577be36448b1267d720e783144901ac8a19b548304a944d3404b1884e4e6e5",
    "harmonic-pair/stationarity-ball": "b5bc272968c67c015d9a4c658ece7c6c786cd871db2e23c4c7ff8df55cab341a",
    "harmonic-pair/carleman": "58d2cbaa5f4ee8e0fe3a71ac966cf6a8e414a16d6d8797c99ea47d1d821f40e4",
    "harmonic-pair/first-carleman": "0a8c1986eb4d3f74a4398d7e0b26f0f9e1f606864c2d6b5e168d959082cfb9f1",
    "harmonic-pair/pre-carleman": "bd267530fe61b5dcf58251aa72ed02d5de6995108c520bc398e50d6a9095ca93",
    "harmonic-pair/modified-carleman": "15493e939cac8adf53572f7f3f74b08ae7297d771298bce8ca8f2a548828bbfb",
    "harmonic-pair/caccioppoli": "405af2259a212bcc8b4770f1db617050b527e277b87d68cf0022e9e0221890d4",
    "harmonic-pair/deficit-profile": "561b5d2ce407639d9ed556ff4c67f1ba05aaca2c9f4b64063992524ba1627e49",
    "harmonic-pair/frequency-identity": "8f810c47b2ed12505d99cdc35369b390590341607e9f9321be75b3478a14542d",
    "harmonic-pair/weiss-derivative": "a674366a1bebfc76b35a5b99b5d8fd405305939cff9be4a6113b49a850da67bc",
    "harmonic-pair/three-sphere": "cebde0e86707a437a273ce9d182aedf2c33063ffd0088a1f7355da6712253119",
    "harmonic-pair/carleman-sweep": "7d54ea27d69e1070f433cab4a68780700396787117e223d405e0677ac698e0e1",
    "wound-s0/stationarity": "04e0d2e155f1595b5f3944acb9677c286ace0a26bd264bf2fa30f2bb85acf6c4",
    "wound-s0/stationarity-ball": "58c8aa62225712ca1fb1b83d510af0c8623db978cb0307eb92bdf86b228894f2",
    "wound-s0/carleman": "2096d87e857aa20e5b86c80d938ba5851d832cc96ed0331268756e3c3959a389",
    "wound-s0/first-carleman": "fb86163cfd9025c7b11b4e15579da47b5ab2012961450d10140612875ae0fbd5",
    "wound-s0/pre-carleman": "70abbee581b985d3cfa256b6ffb21a39b871dc8abfa1cff643544899ef8062e7",
    "wound-s0/modified-carleman": "e12e244467ee8adf96619aa1008232e34c25d66ab364429b6937f42447315028",
    "wound-s0/caccioppoli": "d45acf697b7734be0e1a0e913274f04522d7416a7b82189fe4b8df7b265a3e1b",
    "wound-s0/deficit-profile": "00234b091c54698d0fca620856d941db5364bfd7fbc219e444b4bf33579bfc48",
    "wound-s0/frequency-identity": "137aeae13fde86da9b4df4d685fb86ada40e62cd731101c619a607542ebcde23",
    "wound-s0/weiss-derivative": "fb2d80da5ae6a4ba3dbdd9bfba12e6641068515a6c942969d76f6b3eb115ba22",
    "wound-s0/three-sphere": "2529a98beb019e78ee127dcfffdadacf02f6e142c0a433411205935ca70ace43",
    "wound-s0/carleman-sweep": "95bd01ee49b12108a27c11e2a192f2f20369427d9740870fdd337e15797ae7de",
    "wound-s0/construction-cert": "6a2a17cb8dc81f9e65d035e6db04f6d53064590f7f872b4186b3370ba7dbce90",
    "branch-three-halves/vanishing-order": "b7fec545968b597ff90575b253227f9a58f67c73c288eec4bbaa3f50c4a38c27",
    "branch-three-halves/vanishing-order-off-centre": "59c9276adad692128c78abe377859afd181ff42bc4e0bdcf0945f16fcc487174",
    "branch-three-halves/semicontinuity": "1556608781c06664b6f16e8b93010fadd8017d4a43649b4e9c530dcb28c215b6",
    "branch-three-halves/doubling": "1d2d6de2e9b22590150412861f81cccffe6267211e7296bc2ab2f52a81626a7c",
    "branch-three-halves/frequency-variants": "84ab69b472e6e51279ea690b6e37c940f8e1aaafaaf063f8ebf5dd993ce309c6",
    "harmonic-pair/vanishing-order": "1d3f26075f9d00b3c98556d0bc1a53a56e736efea1bb5faf0ad85818063b76e8",
    "harmonic-pair/vanishing-order-off-centre": "ae5b4789c4d48ab2862c989bbcdd782b911fadfe9bb9370474ba3263b3701d19",
    "harmonic-pair/semicontinuity": "885abd87a9950ab296493c8c29d582e47116ef03de6d515c4c49619ead3418b9",
    "harmonic-pair/doubling": "b88e2616ece36682f160565f9518a838637b8cab6b43349d324ba433c9738fa5",
    "harmonic-pair/frequency-variants": "f941005168790e1067800beb626564877efa1db46e1c2be448906c4875163722",
    "wound-s0/vanishing-order": "945c4a91bee82fc4c0dc2a66853af013a207ddc8ba1e65175b69fa35c1e8be50",
    "wound-s0/vanishing-order-off-centre": "c4e61b2ee1d76431c0dd08a74e1733facf2946c37149bd86df95e5254182c0e1",
    "wound-s0/semicontinuity": "af46218c0a988ee2a2307eae071b01647893839ef5dc497f02ace14da00c41f9",
    "wound-s0/doubling": "d4ade6ffaf347be95c807948286d331838dbc00cc7308ee10ccb10b8d03b5251",
    "wound-s0/frequency-variants": "7fbeb5dba76351a21c77b445927cfc358588054d6e40438586c53d6aa3dc9fa3",
    "harmonic-3d/stationarity": "b730c425a0ff85cfdd818f1e096b4733e1cf3c87b957cfbfb125c4d9cdba7a49",
    "branch-three-halves/frequency-profile-sharp-dyadic": "c20ca184245b291aa402d8c56ab3e3d04123464be3f130c2aa9b4bdd2d9a0f9e",
    "branch-three-halves/frequency-profile-linear-dyadic": "def535bd5074537e41b744ba85971f07c4d5818a80ef119e396cbaaf23a0a998",
    "branch-three-halves/weiss-profile-dyadic": "f8f36d5c55996cde7cbc4ac4030a0f92e34ae7c6682c9839e79771f88152e0ee",
    "branch-three-halves/frequency-profile-sharp-increasing": "2eecceee2f3c3a326d06a1260d6a6618fad391081aea9504ed20755fb05bd552",
    "branch-three-halves/frequency-profile-linear-increasing": "306e0924d76d9ab803f4091fc0cf40a64a5b2879935268124dac9b23225934c8",
    "branch-three-halves/weiss-profile-increasing": "71647b2a4624701285c5e28603093d8f11687423e0a07a360ea99e1177ddf7cc",
    "branch-three-halves/doubling-4": "33eec63b328b996d921e21003b73ee3d7664dfb2d59ebd2f2c314f5e134ff69c",
    "branch-three-halves/frequency-variants-wide": "00740950894f4d8266a2c944a403a5a865a8e2abb7489db7be284fb864ffae37",
    "harmonic-pair/frequency-profile-sharp-dyadic": "99f60a92e1787323b1fd68d97be455906babc7d31abe3d3bcd34c6ed0c5448f7",
    "harmonic-pair/frequency-profile-linear-dyadic": "f78858958a903b815bc92fc2977c282c497355242001a096d8d9c6f6fa5a14f2",
    "harmonic-pair/weiss-profile-dyadic": "25281ee8b2ed395e98deab85275c9cdeaf57e96edbc34e73dc8e41cc892ad9fe",
    "harmonic-pair/frequency-profile-sharp-increasing": "2eb216e0924e8623ff19aaa021d6a7a5c1f8e9f34ee86819044599132890edd9",
    "harmonic-pair/frequency-profile-linear-increasing": "b0d90536d743305a1418249b5de41483cb248f12cc305d5f79d625933945ae97",
    "harmonic-pair/weiss-profile-increasing": "d6abd34dd37872592d1582ead9dc5640c4e1a534558efe7f5375e618f8f4cc19",
    "harmonic-pair/doubling-4": "ddd48fff24f59e03892e878019f29ade54554a6a5320b2d503dcc00d87cf90d4",
    "harmonic-pair/frequency-variants-wide": "865f8a29209f077701c5039fbf1068567c3549f82099522104206f9b77107677",
    "wound-s0/frequency-profile-sharp-dyadic": "5f68d035c2e15e75bf270fb9c164fab2c8721dabbc57dda832f04380368fbfbf",
    "wound-s0/frequency-profile-linear-dyadic": "d0b965851180191fcb9beacbd9486e8dfdae088eff1e18a2d4d06cc3f221be52",
    "wound-s0/weiss-profile-dyadic": "cd1d86baa648bba1c344f967b0eb219726fa3de6fcc1cca5c0600032ebab3f51",
    "wound-s0/frequency-profile-sharp-increasing": "b34712543cf2bdde1f98419e36364d3392f6ba9038887335a8252489ca17d3f1",
    "wound-s0/frequency-profile-linear-increasing": "c885c325bc0c0e468e94b9a39ebad53b6b126b2d58ecf213c67196e37c5319a5",
    "wound-s0/weiss-profile-increasing": "56ee2162414d64fc4941bdc437dbac7ce873158eaa5a082c8057b58cd5a4734d",
    "wound-s0/doubling-4": "51d97365101b4d887dd3f815123bdfbf810478c6eb7b17be5e46d9ae6b92e302",
    "wound-s0/frequency-variants-wide": "706a90f53b261177c132118d8fd1a2167256c58a56b1528e6e933aa5d98f12f0",
    "wound-deep/frequency-profile-sharp-dyadic": "0d0aad9c6edb481e08c009c87d16a87394821c5115e7bc30a420d49152d99ccc",
    "wound-deep/frequency-profile-linear-dyadic": "73f9cd1c1a703dc14b2033477a32cf89e7b559b6cfa6648124c010912fcc028c",
    "wound-deep/weiss-profile-dyadic": "afd19156853d77c21fb3f3ac1262166e157f834a05aa1a97b779df40fbc5e10f",
    "wound-deep/frequency-profile-sharp-increasing": "9bae3df939d79987941110c7a39b60ff2c729e265ad24c265d2b3c3ae743b80f",
    "wound-deep/frequency-profile-linear-increasing": "cca8e1d044f59361a04d45848a39a75eb3ffcbaffd3ec28e216b402e2a4c42b2",
    "wound-deep/weiss-profile-increasing": "c09e644ad8b8ef1773eb72050f68393c3ae49f48fbde6a42700ae361fc7f27bb",
    "wound-deep/doubling-4": "cd414ab02207dabd7c31e61ac4e223c42c2ffa644226bbae3990cad76265ac5a",
    "wound-deep/frequency-variants-wide": "6318975fbcbf518714dacd7bc115cd2576ae07565c572632cb94d8bc117b6bed",
    "wound-capped/frequency-profile-sharp-dyadic": "b34844ba9091372d3194e34a722c884066a8fe995c0479757ba6841c1556f652",
    "wound-capped/frequency-profile-linear-dyadic": "f88531ee623136c1cbdddfc0aacb8d681b3199bd020d5bc5ea5456d4e245902e",
    "wound-capped/weiss-profile-dyadic": "55b8d06f3a770f76338239cb7bef05cff7d66b8fd2f70ee7f827eeec78056699",
    "wound-capped/frequency-profile-sharp-increasing": "7025faae3aeb740cafcd1df0ad0bae7e117731cfba3a60087eb9a433b85e96b7",
    "wound-capped/frequency-profile-linear-increasing": "020eab922bd6b7e6c1f1c234436b2f3ef1282ea63e7ab905d6de2da962d1fabf",
    "wound-capped/weiss-profile-increasing": "ae28e283634068b0458d4045a9906e0c2a831ac282b24adf1de11e4bad9b170c",
    "wound-capped/doubling-4": "5e081341067fdea7303c6b449f35134485c53201685fd93b5b35438e3dcce78f",
    "wound-capped/frequency-variants-wide": "0845578f381a4d095e743631e083d41970ae9c5993e104be102a90de8fd23790",
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
