"""Golden frontend fixture: token streams, lowered patterns and error positions.

The digests, error texts and positions below were recorded with earlier
lexers and parsers (a per-character lexer, a recursive-descent expression
parser, a token-object parser with no subscript memo); the frontend must
reproduce them token by token and node by node.
"""

import hashlib
import sys

import pytest

from repro.frontend.clexer import LexerError, lex
from repro.frontend.cparser import ParseError, parse_program
from repro.frontend.stencil_detect import parse_stencil
from repro.ir.expr import BinOp, Call, Const, GridRead, UnaryOp
from repro.stencils.generators import fuzz_stencil
from repro.stencils.library import BENCHMARKS, SCENARIOS, get_benchmark

#: name -> (sha256 of the token stream, sha256 of the lowered pattern).
GOLDEN = {
    "star2d1r": (
        "6af6301b6d8c4f059993e6e6f2ec8a20d24cb3467e3970cf725a2294573031b0",
        "7b05376fe3df6c80495a87e2f08e1f02c507e5e8a757e4398bf705d0b6cc4c80",
    ),
    "box2d1r": (
        "e5434c53af604d6d39ae8c2838ea238276cdbbf67e6f4ecf351dbe94b54ab1c6",
        "c8f1db4361136a095b15289fa8a7cd28d11584f7a44db112c7b0cfce8dd1f96b",
    ),
    "star2d2r": (
        "7760dd3c61c333a7c876afb737fdebf36dffac5ff052c2b6162f029bd2849858",
        "cef02b8bdd2e95db42243200a7ee6f754066fb96666a234e31087ce891424283",
    ),
    "box2d2r": (
        "7ed201656f6167575b0ea861c56c5aee34018c88f199162cea842029ae24623d",
        "7489b477bba72041c51e458efb1412534ff92ed6c93a76e53107f7f1a8b320ec",
    ),
    "star2d3r": (
        "3187e06058021f19b4e7d3de77ffe9293b005161602f0680e3f48288c082b838",
        "94ceb4fe56261ce73149c30f3ffba4020c3a612427f3067cccd2026e0c52ca9d",
    ),
    "box2d3r": (
        "17abf30d22193cb1231df029ad6b57773009593d4a0e7ba8e4c0da2ea4154ecb",
        "4a2e325705594a8b34ef727373000b65626f543dca5fe77ec013167e16a8dbaa",
    ),
    "star2d4r": (
        "4e6bcefed2e4d622e04265919bf53fdc0a5950c9728c0727a714570030593d4e",
        "f33692719d2df94f2fd31d220f23d502338cea795ee7510b255585bf9bb9cd85",
    ),
    "box2d4r": (
        "d984d549c9957ccbd4c4719c3bf54bf310785dd04c07ba19a468c603778d6ab6",
        "5b2473c093c6feeffec66edeae2437c3dac4ac0b15e7e242723e396e37e58e5b",
    ),
    "star3d1r": (
        "63f28fccfc34c6750f82259dfbd4f278d61165a2a02bf96a250190e60b7f7cdf",
        "330cf6c61b00f48ecb5c68f2298c2f7e64afd812aa112addef4d206e49f10ced",
    ),
    "box3d1r": (
        "52d6c06c735e5297badacf5fb3b6056bf6b98ef00289ff999ea7984fee8f4a6a",
        "cc646a26a1e03b2205a9fcbddaca7ff3a8c349cfec7ef88ce5f2e2a44759a62c",
    ),
    "star3d2r": (
        "066e31eba69e8da328ee1f14631376902ba0c25d91f6d27e9e0af3d414ca2356",
        "54a9e88472723db427b586de9e4cff355a2251be04cbfe225eaa126cbd8fdfd4",
    ),
    "box3d2r": (
        "fbbba7b4023d5e7bc83f58754443494441f784feca43c9a1d48864678a6ff2bc",
        "6f140b3a76ce7e2c808a63c287668be03bb62e1a9f8cb1a563248947c7b81b11",
    ),
    "star3d3r": (
        "a7535766f68ef0aa430110235f31ea5f72313042f897b2df785f9aab076b9eb4",
        "8090c3a27146c87b7ba60ef433fa5e95ce5e845e6489f21b4f0b2eb10934580c",
    ),
    "box3d3r": (
        "7a58b59807d194f511f65d85506c1b228318486f39b69d7af4976d2ed88d95df",
        "06066e4627f968c377180c0d64f560e54e555fb496468646b558b68404159811",
    ),
    "star3d4r": (
        "e61dc36f3dcd3343a6bb367c4995d408a1bbc34971d1bf3ad38522ae82bff6aa",
        "960a3c3a6814709a66185aaa4385076d9ef404f21b4acdfb5efc147492f349a9",
    ),
    "box3d4r": (
        "c3af5fca2eb1ac536062661493abef837c1705050d00bb8714da6f74f197e109",
        "216595488e3eaddd1c6dadbb3b6149c85dc804df3ac31f3185ab157bcdaa8e89",
    ),
    "j2d5pt": (
        "c07785d58d70e4176394532a0201406be2ee03654bf0f3e74505c16df0e9971f",
        "01b232d86037b883490268ea2792f1e83b21eca92e96ae7be438ac434cdf7247",
    ),
    "j2d9pt": (
        "570d5fc2aef7117caae30efd8cde2319532ae3000fb2917ca6f5626b420c364c",
        "65235df2e1578d0ce776fa434d5344b457e6fd3d9920cf45260eb412b5b35152",
    ),
    "j2d9pt-gol": (
        "c08f43327df02ff6618dc43656e2e42acaa895e9242b8fa1aa40bd0ec3402d96",
        "099feee222c22b86421721aa1125c29139a64df6128c34e4accb57d3602ec71a",
    ),
    "gradient2d": (
        "e6042e15694c06ff88f4422ace456f2fa28be932468ce5123ab03ab68339ac70",
        "479b9c2dec2b174934751506a343261dfa8f57e65be84a5f68f25a69a089dffc",
    ),
    "j3d27pt": (
        "6de8c9fe758a5fe75284f68f445eb12022a095b14d45ca23ce83db5eca4af776",
        "b1fef00379c03e6e89b56995b5203371f4794afbf0246098bb97e4e3a3187d3f",
    ),
    "fdtd2d": (
        "5e5a614919c82f73c65fd344900effb494f7a25e1ea9385f0a993b6a946b8ebd",
        "9f967e1f3ba1a3bfc26e91143b99d7352c731ff0260441fa6d8c7bf4eabcef3f",
    ),
    "fdtd3d": (
        "7ab0335e6d7356b98eed244fdb7df95742d8f3a963807fce446bfe5fbbdd0093",
        "c188344604bdbd690a6886562a7fe0867ec42ebeb32bff451de1d533f4f2b0ca",
    ),
    "astar2d1x3r": (
        "2e9989ebe2f3fc004be46e9152b6117928be370804813b3c481a06c0b2cdfea8",
        "e18e5e5ba4872109af2c41efb620403c77bc617bc6a3505d9ba39fee4c9f2c47",
    ),
    "astar3d2x1x1r": (
        "2796c0d255376748e479573bd488590acd71a608a19f39cf973c281d7ac2eca1",
        "9c9a13453fe25bfe19a4d5ec4ad677b9e93e5e769c76e054da07d4b9fa607b7c",
    ),
    "vstar2d2r-s7": (
        "9cff2c825250c53b2aca8f519d1a9452635ccb3eef617a05021fbfd97b1ae798",
        "1b54bf111232537337f416e04b4575bd10bd93a725937a0735a2a01a4c0620d6",
    ),
    "fuzz-7-0": (
        "fbbba7b4023d5e7bc83f58754443494441f784feca43c9a1d48864678a6ff2bc",
        "6f140b3a76ce7e2c808a63c287668be03bb62e1a9f8cb1a563248947c7b81b11",
    ),
    "fuzz-7-1": (
        "7adb636c1a89dfced97bd61d4ea2e60709c0db7367b7bbc0e839cddc3aeadca3",
        "fcfd1bb72d8d21d22f4875c614b9fde5282c50755e05ae71afa4864deac21ac4",
    ),
    "fuzz-7-2": (
        "6af6301b6d8c4f059993e6e6f2ec8a20d24cb3467e3970cf725a2294573031b0",
        "7b05376fe3df6c80495a87e2f08e1f02c507e5e8a757e4398bf705d0b6cc4c80",
    ),
    "fuzz-7-3": (
        "d8c4f1e64ed6ac1b4d4deb7902c76bd92b814cf6fbdf019ac270c7ebcefa5e7d",
        "e2118450c0e71eaf356165a6589f28d3367c0c13df89f7a29daa5b99fc6649c3",
    ),
    "fuzz-7-4": (
        "a3d4b6e8936dbbb28e156ed6fcac6cf1ed2617994eb98dcc29b19fefe6b55657",
        "4c75c354c07365ecc3bef3a9baa6ec1480eccc06c69e0d69c69262ae896301d7",
    ),
    "fuzz-7-5": (
        "52d6c06c735e5297badacf5fb3b6056bf6b98ef00289ff999ea7984fee8f4a6a",
        "cc646a26a1e03b2205a9fcbddaca7ff3a8c349cfec7ef88ce5f2e2a44759a62c",
    ),
    "fuzz-7-6": (
        "52d6c06c735e5297badacf5fb3b6056bf6b98ef00289ff999ea7984fee8f4a6a",
        "cc646a26a1e03b2205a9fcbddaca7ff3a8c349cfec7ef88ce5f2e2a44759a62c",
    ),
    "fuzz-7-7": (
        "fbbba7b4023d5e7bc83f58754443494441f784feca43c9a1d48864678a6ff2bc",
        "6f140b3a76ce7e2c808a63c287668be03bb62e1a9f8cb1a563248947c7b81b11",
    ),
    "fuzz-7-8": (
        "066e31eba69e8da328ee1f14631376902ba0c25d91f6d27e9e0af3d414ca2356",
        "54a9e88472723db427b586de9e4cff355a2251be04cbfe225eaa126cbd8fdfd4",
    ),
    "fuzz-7-9": (
        "ed5a4686988cd0d362e698453da66fbf782f28787b02fc96a1ff94c9abfb0e6d",
        "0750f7da34373650825f266895a0d531d899a00e91dd416c5071ef64a3ed51d3",
    ),
    "fuzz-7-10": (
        "3dcc017752853840f55e15331dafea814eb0d47c3a69d30f3966f5d63905a3d1",
        "55b2b455578b782f226ab88defbc0ac6d742d5ece358242fb4ea9774d6db64b3",
    ),
    "fuzz-7-11": (
        "1fc6eebd870c8cfbd06cedd422b1448d0371ef9dd68cbdd12997abfbc86f6e23",
        "5de08840d8daf21a3aeac6c9ce9c7b66fef3b138cce766e93cd62e03ac3b216a",
    ),
    "box2d8r": (
        "d371d398c376037ba5b2653ae95e8c52ab0aba4a2790897a97e77c4a670e5c75",
        "b854f5b8df4562dd24a47904fd55ec61ffd28d955a11c696bbb618a15b0552c4",
    ),
    "star2d8r": (
        "8ef637dcbf15ea0410e76cb76d997b490dc5cbfdac1bee98b4f9fe9b01700b26",
        "bda50c2eb7d6250eb05036c95a7707cf615c8f6abb186a57e2e7315b4dc7682c",
    ),
    "star3d8r": (
        "a678700f220224812c23c9b2b6afaeb467368c52ed25bd8894e26ed3b1cdce58",
        "0eaf61e6a8cc62e6915587eb703212422583a5aa46fa743a6e4d6f4212b1583c",
    ),
    "astar3d1x2x3r": (
        "7a4076e12cc830c29f33140438dadc3c4f0815e8f005c4f7b2dbaab74e34a7cd",
        "41e080d6b6c38b658964a8e494b01dff74f4c592c252b5fc48cb66fc9a00764d",
    ),
    "vstar3d8r-s7": (
        "726e0f668a3d40124699be86e9d8f8a0290559bd7f6768cc8181e4e32ddae127",
        "56f8300792d7b7f80cb8e13f2d6dcc544b4b007ccdde385303be9606d707aa0d",
    ),
}


#: Generator-backed names beyond Table 3: the radius-8 stars and 2-D box, an
#: anisotropic star and a variable-coefficient star.
DYNAMIC_NAMES = ("box2d8r", "star2d8r", "star3d8r", "astar3d1x2x3r", "vstar3d8r-s7")

#: Every Table-3 benchmark and named scenario, fuzz seed 7 indices 0-11, then
#: the dynamic names.
SOURCES = {name: benchmark.source for name, benchmark in {**BENCHMARKS, **SCENARIOS}.items()}
SOURCES.update((fuzz.name, fuzz.source) for fuzz in (fuzz_stencil(7, i) for i in range(12)))
SOURCES.update((name, get_benchmark(name).source) for name in DYNAMIC_NAMES)


def tokenize(source):
    """Every token of ``source`` with its line and column, ``eof`` last."""
    stream = lex(source)
    return [stream.token(index) for index in range(len(stream.values))]


def token_digest(source):
    digest = hashlib.sha256()
    for token in tokenize(source):
        digest.update(f"{token.kind}\x1f{token.value}\x1f{token.line}\x1f{token.column}\n".encode())
    return digest.hexdigest()


def pattern_digest(source):
    """Hash the inferred-dtype pattern, serialising ``expr`` in pre-order
    from an explicit stack (node arities make the order unambiguous)."""
    pattern = parse_stencil(source).pattern
    digest = hashlib.sha256(f"{pattern.ndim}|{pattern.dtype}|{pattern.array}\n".encode())
    stack = [pattern.expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Const):
            record = f"C{node.value!r}"
        elif isinstance(node, GridRead):
            record = f"G{node.array}{node.offset}0"
        elif isinstance(node, BinOp):
            record = f"B{node.op}"
            stack += (node.rhs, node.lhs)
        elif isinstance(node, UnaryOp):
            record = f"U{node.op}"
            stack.append(node.operand)
        elif isinstance(node, Call):
            record = f"F{node.name}/{len(node.args)}"
            stack.extend(reversed(node.args))
        else:
            raise TypeError(f"unexpected node {node!r}")
        digest.update(f"{record}\n".encode())
    return digest.hexdigest()


def test_golden_covers_every_table3_scenario_and_fuzz_source():
    """One golden entry per source, in order, the dynamic names included."""
    assert list(SOURCES) == list(GOLDEN)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_token_stream_and_lowered_pattern_match_golden(name):
    source = SOURCES[name]
    assert (token_digest(source), pattern_digest(source)) == GOLDEN[name]


# -- error positions -------------------------------------------------------

NEST = "for (t = 0; t < T; t++)\n  for (i = 1; i < N; i++)\n"
NEST2D = NEST.replace("i = 1", "i = 4") + "    for (j = 4; j < M; j++)\n"

#: name -> (source, message, line, column)
LEXER_ERRORS = {
    "unknown_char_line3": (
        NEST + "    A[(t+1)%2][i] = A[t%2][i] @ 2;\n",
        "unexpected character '@' (line 3, column 31)", 3, 31,
    ),
    "exponent_sign_no_digits": ("x = 1.5e+;", "malformed exponent (line 1, column 10)", 1, 10),
    "exponent_no_digits": ("y\n  = 2e;", "malformed exponent (line 2, column 7)", 2, 7),
    "unterminated_block_comment": (
        "a = b;\n  c /* never\n closed",
        "unterminated block comment (line 2, column 5)", 2, 5,
    ),
    "crlf_tabs": (
        "for (t = 0; t < T; t++)\r\n\tfor (i = 1; i < N; i++)\r\n\t\tA[i] = `;\r\n",
        "unexpected character '`' (line 3, column 10)", 3, 10,
    ),
    "define_mid_file": (
        NEST + "#define N 64\n    A[(t+1)%2][i] = $;\n",
        "unexpected character '$' (line 4, column 21)", 4, 21,
    ),
    "numeric_not_alpha_start": ("x = \u00bd;", "unexpected character '\u00bd' (line 1, column 5)", 1, 5),
}

PARSE_ERRORS = {
    "missing_semicolon_eof": (
        NEST + "    A[(t+1)%2][i] = A[t%2][i]\n",
        "expected ';' at line 4, column 1 (near '')", 4, 1,
    ),
    "missing_semicolon_mid": (
        NEST + "  {\n    A[(t+1)%2][i] = A[t%2][i]\n    A[(t+1)%2][i] = 1;\n  }\n",
        "expected ';' at line 5, column 5 (near 'A')", 5, 5,
    ),
    "unterminated_block": (
        "for (t = 0; t < T; t++) {\n  for (i = 1; i < N; i++)\n    A[(t+1)%2][i] = A[t%2][i];\n",
        "unterminated block at line 4, column 1 (near '')", 4, 1,
    ),
    "crlf_tabs": (
        "for (t = 0; t < T; t++)\r\n\tfor (i = 1; i < N; i++)\r\n\t\tA[i] = 1 +;\r\n",
        "unexpected token at line 3, column 13 (near ';')", 3, 13,
    ),
    "define_mid_file": (
        NEST + "#define N 64\n    A[(t+1)%2][i] = A[t%2][i] A;\n",
        "expected ';' at line 4, column 31 (near 'A')", 4, 31,
    ),
    # A malformed subscript after well-formed ones spelled like its prefix
    # is parsed, and reported, as if no subscript came before it.
    "subscript_space_after_prefix": (
        NEST2D + "      A[(t+1)%2][i][j] = A[t%2][i-4][j] + A[t%2][i-4 j][j];\n",
        "expected ']' at line 4, column 54 (near 'j')", 4, 54,
    ),
    "subscript_nested_unbalanced": (
        NEST2D + "      A[(t+1)%2][i][j] = A[t%2][i][j] + A[t%2][B[i][j];\n",
        "expected ']' at line 4, column 55 (near ';')", 4, 55,
    ),
    "subscript_unterminated_at_eof": (
        NEST2D + "      A[(t+1)%2][i][j] = A[t%2][i-4][j] + A[t%2][i-4",
        "expected ']' at line 4, column 53 (near '')", 4, 53,
    ),
}

#: name -> (source, [(kind, value, line, column), ...])
TOKEN_POSITIONS = {
    "crlf_tabs": (
        "for (t = 0;\r\n\tt < T;\r\n\t\tt++) /* x\r\n y */ a[t] = 1.5e-3f; // z\r\n",
        [
            ("keyword", "for", 1, 1), ("punct", "(", 1, 5), ("ident", "t", 1, 6),
            ("op", "=", 1, 8), ("int", "0", 1, 10), ("punct", ";", 1, 11),
            ("ident", "t", 2, 2), ("op", "<", 2, 4), ("ident", "T", 2, 6),
            ("punct", ";", 2, 7), ("ident", "t", 3, 3), ("op", "++", 3, 4),
            ("punct", ")", 3, 6), ("ident", "a", 4, 7), ("punct", "[", 4, 8),
            ("ident", "t", 4, 9), ("punct", "]", 4, 10), ("op", "=", 4, 12),
            ("float", "1.5e-3f", 4, 14), ("punct", ";", 4, 21), ("eof", "", 5, 1),
        ],
    ),
    "define_mid_file": (
        "a = 1;\n#define N 64\n  b # c\n = 2;",
        [
            ("ident", "a", 1, 1), ("op", "=", 1, 3), ("int", "1", 1, 5),
            ("punct", ";", 1, 6), ("ident", "b", 3, 3), ("op", "=", 4, 2),
            ("int", "2", 4, 4), ("punct", ";", 4, 5), ("eof", "", 4, 6),
        ],
    ),
    # Identifiers follow str.isalpha/isalnum and digits str.isdigit, so a
    # superscript two is a one-character number and a CJK numeral a name.
    "non_ascii": (
        "\u03a9mega[i] = \u4e8c + x\u0663 + _\u00e9 * \u0663 + \u00b2x;",
        [
            ("ident", "\u03a9mega", 1, 1), ("punct", "[", 1, 6), ("ident", "i", 1, 7),
            ("punct", "]", 1, 8), ("op", "=", 1, 10), ("ident", "\u4e8c", 1, 12),
            ("op", "+", 1, 14), ("ident", "x\u0663", 1, 16), ("op", "+", 1, 19),
            ("ident", "_\u00e9", 1, 21), ("op", "*", 1, 24), ("int", "\u0663", 1, 26),
            ("op", "+", 1, 28), ("int", "\u00b2", 1, 30), ("ident", "x", 1, 31),
            ("punct", ";", 1, 32), ("eof", "", 1, 33),
        ],
    ),
}


@pytest.mark.parametrize("name", list(LEXER_ERRORS))
def test_lexer_error_text_and_position(name):
    source, message, line, column = LEXER_ERRORS[name]
    with pytest.raises(LexerError) as excinfo:
        tokenize(source)
    assert (str(excinfo.value), excinfo.value.line, excinfo.value.column) == (message, line, column)


@pytest.mark.parametrize("name", list(PARSE_ERRORS))
def test_parse_error_text_and_position(name):
    source, message, line, column = PARSE_ERRORS[name]
    with pytest.raises(ParseError) as excinfo:
        parse_program(source)
    token = excinfo.value.token
    assert (str(excinfo.value), token.line, token.column) == (message, line, column)


@pytest.mark.parametrize("name", list(TOKEN_POSITIONS))
def test_token_positions(name):
    source, expected = TOKEN_POSITIONS[name]
    assert [(t.kind, t.value, t.line, t.column) for t in tokenize(source)] == expected


# -- recursion headroom ----------------------------------------------------


@pytest.mark.parametrize("dtype", [None, "double"])
def test_box3d4r_parses_under_a_recursion_limit_of_150(dtype):
    """The 729-term chain is parsed and lowered without per-term stack depth."""
    source = get_benchmark("box3d4r").source
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        detected = parse_stencil(source, name="box3d4r", dtype=dtype)
    finally:
        sys.setrecursionlimit(limit)
    assert detected.pattern.dtype == (dtype or "float")
    assert detected.pattern.radius == 4
