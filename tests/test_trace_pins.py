"""Byte-for-byte pins of the version-1 proof traces.

Each good fixture is compiled and bounded twice, without and with the
closed-aspherical lower bound at the fixture's dimension, and the SHA-256
of ``serialize_trace`` is compared with the digest recorded before the
engine's walk was rewritten.  ``"inconsistent"`` records that the bound
raises ``InconsistentBoundError`` (a compact-model group cannot carry an
aspherical lower bound).  A changed digest means the trace text changed,
which is a format change, not a refactoring.  The three ``alex_*``
fixtures and the three with an F4 piece were re-pinned when compilation
stopped precomputing bounds: Alexandrov traces now derive the smooth
cover's group, and F4 pieces are lattices bounded by the engine.
"""

import hashlib
import random

import pytest

from conftest import FIXTURES, make_expr

from asdimlab import engine, manifolds
from asdimlab.bounds import InconsistentBoundError
from asdimlab.groups import Amalgam, FreeProduct, Lattice

# fixture path -> (digest without aspherical_dim, digest with aspherical_dim=dim)
TRACE_SHA256 = {
    "alex_empty.mfd": (
        "54611c367833d8b5f106893cc0b2e882be38ddde205e740e563be1fb70ba96f1",
        "1311f4755ee634bb61686110d50ea44b1695c4c4556f6639b22c5aa275dd6cb1",
    ),
    "alex_graph.mfd": (
        "edaf16a8050aa9f6d6d7a67a9ef34afb6d8db1fa101956e3eb45fd10f7c19246",
        "fc3db44adf49ddcba67f570e260950aed3347d3f83cb23bfb66b0aea1f05f157",
    ),
    "alex_sing.mfd": (
        "1b76d8bc2d17b1fd908f59a86bb79b4665116f8052159e3cccdff81942fa99d4",
        "59a5720efe49b6ea46ba4b1537a470eb2677f93559c54857afe37ef736090579",
    ),
    "aspherical_tree.mfd": (
        "d618602829ca070ad172599585b1e4a2b38593b1cb95edde3a547556c77135e5",
        "ab6c962c5e5da2f498107a8d126239799ed9be148b45918151ea2bc261512015",
    ),
    "d3_graph_klein.mfd": (
        "1e76ef807d711a749369a41dd6fbb9577a563ee2cc2e0852daf6dc7dfaa6598b",
        "7a7d7db1ae493bbb3ad33a1a4e8c851c74a02c650b9ecd984aa3583c4a9e3fdb",
    ),
    "d3_graph_surface.mfd": (
        "e7f8588ccd5dc509f7784e214481a64a30c8a48891d1049e8bab637c1acb98ef",
        "12eaa844951b5ade21ff88fb7993810d1bad4fc49207a30f41f0a900c21bbe7b",
    ),
    "d3_graph_torus.mfd": (
        "57acc96849e447ca813aea3c1dc4265628b3fd229b3278f305e3ec1f57dbba9d",
        "c5b22ffb253a491a848a8be8b41e184da224549e0bc95e245227814581bbdc58",
    ),
    "d3_graph_union.mfd": (
        "134508fbf04cf13383e6babd1615d1a4d5f620da8d92ed82ea3e4007bb835e10",
        "9a09c58916818b33d6d9a4990b29583a6fa691526cecabd2d5a229d1fcddf2b7",
    ),
    "d3_h3.mfd": (
        "c7b9c85706bb1ee4c6f7c3cdcb29c32bd56b3f8c605bba01fb70b1f715436147",
        "40624c9a0144915865e9122dd71648d30b0996bf16be54148a926a121f7f6f20",
    ),
    "d3_s2xe.mfd": (
        "25f781577e7b65e9264453de74014bd9535d80b187f2165be3c44192b0a10316",
        "inconsistent",
    ),
    "d3_sol3.mfd": (
        "b07711ec1a97410980e1d05d4c19a80798507ae0946ea6aae5df23cac2dfdb95",
        "d1837525907d86bb759c39e96226f39ba0628c3b3ff68dcfcb7db075c4dedce3",
    ),
    "dim3/e3.mfd": (
        "d22c6e656d47ef35f26687b8df57fda47dd6e29021e3cfdea6cf0583e3f5de58",
        "d73bb458069a8c179b91f106d149a9912927bb17d1d88c0ff6007f855e80dce2",
    ),
    "dim3/h2xe.mfd": (
        "1bde9eed8828a3f656b34fbf486c336a64132b188e43ad97963a5de24e59385e",
        "7c575492ef99bc734685f99f43784dd9bdff32c2e371014728dcf6d45c4d7cbc",
    ),
    "dim3/h3.mfd": (
        "c7b9c85706bb1ee4c6f7c3cdcb29c32bd56b3f8c605bba01fb70b1f715436147",
        "40624c9a0144915865e9122dd71648d30b0996bf16be54148a926a121f7f6f20",
    ),
    "dim3/nil3.mfd": (
        "48005aa79adae9772a4650939e5b06b8a714e47cddc6a21d13bff118233c3442",
        "dc9c523e6c4d30e652486c5d1677e10fd2fb55987f343c78824d5c4ea4a6fe8b",
    ),
    "dim3/s2xe.mfd": (
        "25f781577e7b65e9264453de74014bd9535d80b187f2165be3c44192b0a10316",
        "inconsistent",
    ),
    "dim3/s3.mfd": (
        "f03fce670ab1902d73dc16e83ced1ac5ec9d5fe90d2606b5b8a8d588a6ce99c1",
        "inconsistent",
    ),
    "dim3/sl2t.mfd": (
        "22c3538dced65e6b4d81eb2bd64f8ca198af59611879a47be3e976c41e6aa869",
        "5257cef4f0d9208cfdd7d1f08183db43bd1dc89cfef7d0b8fdab9ce369e17448",
    ),
    "dim3/sol3.mfd": (
        "b07711ec1a97410980e1d05d4c19a80798507ae0946ea6aae5df23cac2dfdb95",
        "d1837525907d86bb759c39e96226f39ba0628c3b3ff68dcfcb7db075c4dedce3",
    ),
    "dim4/cp2.mfd": (
        "e680f683891873b13444f38822246191953c780c4f95ae3ba059fa2cb0df56a2",
        "inconsistent",
    ),
    "dim4/e4.mfd": (
        "6e80271757d8982d6b6c056e52af2498d6953393fb5bd38ddcb76391e1bb8f71",
        "41a5f9b362aff66ec9eb1d4b3198b0196cfa5dab72e04567c4f96f4c78fbf33d",
    ),
    "dim4/f4.mfd": (
        "5e2f594cf2595b0fc3e32d5511c7f3b030cb9f0e8d94a1484f5de226ea7d4ef5",
        "41f3782c3215522a74c06cda7c099d1b7f3d3fcea8aea888cf712e09763c87f1",
    ),
    "dim4/h2c.mfd": (
        "f62a70b0ddd4c9f4580a9a0715cff77f9e5e3e00452e06069affdb05b86b0aaa",
        "f9dcd6aaca6f2b27f6fe4129af6ef1993d0be874bde1cffce720275c6aaced42",
    ),
    "dim4/h2xe2.mfd": (
        "b08c439c1b48982b7b99ae928c15db6c1e2eb5df9f6fce2c0375607a241b18eb",
        "1990abe4f8891a3bbc4909cd9c1f1819d32927c07d789589d16d4016ce322345",
    ),
    "dim4/h2xh2.mfd": (
        "deffc316bf0ec3652c96190b45601494eced8ce907c62a0e4c9edd1a684d4f85",
        "1789ec4eb126d15ae440a0714dad3aa55e0e63f065180e9817c051ce6ace5b3e",
    ),
    "dim4/h3xe.mfd": (
        "410d58db87f15ab22e1c4d61b67c0dac749630aabcbdb6df5fbdfd86748be5f9",
        "bcd618b57b7116b7623719fa11c3db07a7e62cfbdef6aefc97de37c7cce77c56",
    ),
    "dim4/h4.mfd": (
        "08b7600a6318c5156a48f1bf622f2d475e87fc4b30227853ef6168b097be870b",
        "8efbc68de28bd5830502995267daa14a2842edc95d3960ec97b98e229496a27a",
    ),
    "dim4/nil3xe.mfd": (
        "2be310b81ed1137ec9b66aa1e1e0f1fa0364c886975d2f43d3c593c794756815",
        "fec610f21d0dbe2d49053d3773ef874c25c10b013d39d2567ff334e64a3021da",
    ),
    "dim4/nil4.mfd": (
        "1e77a93be5cecc6660aef52d56a57e22d6f275df74c78748ee635ce788de7bdf",
        "0612c00e18f0f1580741ce3fc6e462d09672e2aa26206545f77eba5171dc943e",
    ),
    "dim4/s2xe2.mfd": (
        "165cd776e10974128e6ded58b031a7cb2d4ff26d3ac5ca8e3d7d86575663ebb5",
        "inconsistent",
    ),
    "dim4/s2xh2.mfd": (
        "9f19a6c90ffa803e741746f7965ceeae0ffaa77fb2a0635171a3d74d9d77a7a4",
        "inconsistent",
    ),
    "dim4/s2xs2.mfd": (
        "b73d349eee31ff991f8c282fd02466441d34d19a887a3f9463c793c4669251ea",
        "inconsistent",
    ),
    "dim4/s3xe.mfd": (
        "b312fde625d1f8f727761a5108327fe6c6efdaa9372f46468eda402082999236",
        "inconsistent",
    ),
    "dim4/s4.mfd": (
        "c587b80ebb3bb103a266521f3c8eab657332a91dacdce977cec47116c607dcea",
        "inconsistent",
    ),
    "dim4/sl2txe.mfd": (
        "c3bf4940ea2d63066886b6abf423fdd151645d6511374a2835a2fdd368710ef0",
        "9ca3cd581a7b065a1ac7b60cad4ce0e0294f73819df33ae457dd3f2b3b50f3b8",
    ),
    "dim4/sol4_0.mfd": (
        "5df61a7a841c475356d4198e2c5f4525e6a64d31291bac8d6693a95cef96978c",
        "618fc58a1a1fd66e522f88a06e5e02d3b237992c625072785e78e0ea52c0e08d",
    ),
    "dim4/sol4_1.mfd": (
        "ae263c133962cb2151fffd1213186448e42aa7ec4d0493d93b9a577bc0d3a3ca",
        "6cd32fd730ca9ca0755c7f2c870c8c8a3ebed536253d4cf0636024c70742867a",
    ),
    "dim4/sol4_mn.mfd": (
        "0b7b1716204ac86699cc0b42556cdc8a4a1b5b7abd61f6260b3597c6e229ed69",
        "731a90b14fe5ea930e83f568263769024a5917eed3c6d35563aaaac3bfecddf1",
    ),
    "five_summands.mfd": (
        "e0aee3e3d20a81bc3a0954e11fa3321a05105867919488b4d10b3f1f4af767ce",
        "f185dcf7d10e658d82f2142507f20b61f2f36ffa66ea6c71b5c686f5661ade0a",
    ),
    "h2c_f4_tree.mfd": (
        "2aacaf3a356d48b1833cf7110b12ff67cf00f01014c4322361abd6b168850e4e",
        "d1e2807f0566a32565c4a81d3738fa66c9cf1ccb43ffbc18be1b513ffe2dccde",
    ),
    "h2xh2_pair.mfd": (
        "088dd648fbcfc71bf4619290b7a00e6c2340ee32e0d1a82f00a36f142f784e37",
        "2142c214c3cf0e3f7225b150e0d96e7c997ce9835b73e2c0f3df1d3b7b0eb560",
    ),
    "h4_loop.mfd": (
        "b39464133fdf97c08b37bc4028ecf9f28a3c6b31e18e1e42c99485333316ecf7",
        "bac0a9f68a99de1ab2e41d734b2e5109e93d807874553a89c392fb5f36b4c2e4",
    ),
    "orbifold_union.mfd": (
        "7b0239bfce107cb8b0ec0f778d5bfb0aba7a7f9ea9abb1e08531debb9e174a0c",
        "inconsistent",
    ),
    "sum_e4_s4.mfd": (
        "b5faac1eebbb38ad0ad48a1df2ca134a5f56ae38e19d3f9dbd113d3cc0727b37",
        "1a5efea332f4d4b1cf41b596bb01792ec0fa76e8cce7d54b553e4ba8470dd725",
    ),
    "sum_three.mfd": (
        "02d9824ea8715bccd69f3c97bd8789bf12a6e4872e8c252dd675555b70d5153e",
        "f08082d91eaa594ec62173cf3da553cb3d4a88bd6b2715c5243446264f18f09a",
    ),
}

# FreeProduct of 300 copies of Lattice(H4,4,cocompact): 299 R-AMALGAM steps,
# each named by the free product of the factors up to its own
WIDE_SUM_SHA256 = "2e5b12d6e14b002ee11348eebf3f10deec4e3e5619b990b26f1f35d3f6ac1a87"

# A 300-vertex injective chain of H4 pieces joined by flat3 edges, as
# manifolds.compile builds it: 599 leaf occurrences of only two distinct
# leaves, so every step block after the first two is a copy.
# (digest without aspherical_dim, digest with aspherical_dim=4)
CHAIN_SHA256 = (
    "6ea2c105add868a79060c942d90afb6d795aa1cc3b92ea4c2fd29bfbc9af2158",
    "5dfa4a119102c32b707e819d6f57bee76b3e140bf879fb675898bfad9cf819ce",
)

# 400 random expressions of depth 0..4 from make_expr, seed 61803, traces concatenated
RANDOM_TRACES_SHA256 = "e02ddb4c76db76f01e58375e9376ae952dee56ed8a32a3e8abbfd5e63a514600"


def _digest(expr, aspherical_dim):
    try:
        result = engine.bound(expr, aspherical_dim=aspherical_dim)
    except InconsistentBoundError:
        return "inconsistent"
    return hashlib.sha256(engine.serialize_trace(result.trace).encode()).hexdigest()


def test_the_table_covers_every_good_fixture():
    good = {
        p.relative_to(FIXTURES).as_posix()
        for p in FIXTURES.rglob("*.mfd")
        if p.parent.name != "bad"
    }
    assert good == set(TRACE_SHA256)


@pytest.mark.parametrize("rel", sorted(TRACE_SHA256))
def test_fixture_trace_bytes_are_pinned(rel):
    desc = manifolds.parse_manifold((FIXTURES / rel).read_text())
    expr, _ = manifolds.compile(desc)
    assert (_digest(expr, None), _digest(expr, desc.dim)) == TRACE_SHA256[rel]


def test_random_expression_trace_bytes_are_pinned():
    rng = random.Random(61803)
    h = hashlib.sha256()
    for _ in range(400):
        expr = make_expr(rng, depth=rng.randrange(0, 5))
        h.update(engine.serialize_trace(engine.bound(expr).trace).encode())
    assert h.hexdigest() == RANDOM_TRACES_SHA256


def test_wide_free_product_trace_bytes_are_pinned():
    expr = FreeProduct(tuple(Lattice("H4", 4, True) for _ in range(300)))
    assert _digest(expr, None) == WIDE_SUM_SHA256


def test_chain_trace_bytes_are_pinned():
    expr = Lattice("H4", 4, False)
    for _ in range(299):
        expr = Amalgam(expr, Lattice("H4", 4, False), Lattice("E3", 3, True))
    assert (_digest(expr, None), _digest(expr, 4)) == CHAIN_SHA256
