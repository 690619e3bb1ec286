"""Golden CUDA fixture: the emitted names, kernel and host text of a config matrix.

Every valid configuration of the 21 Table-3 stencils over both dtypes and the
matrix below is generated; one sha256 per (stencil, dtype) pins the kernel
and host names and sources of all its configurations, in matrix order.  The
digests were recorded with the earlier generator, which built the sources as
a CUDA syntax tree and printed it; the text-line generator must reproduce
them byte for byte.
"""

import hashlib
import itertools

from repro.codegen.package import generate_cuda
from repro.core.config import BlockingConfig
from repro.core.transform import an5d_transform
from repro.stencils.library import BENCHMARKS, load_pattern

BT = (1, 2, 3, 4, 10)
HS = (None, 128)
DOUBLE_BUFFER = (True, False)
REGISTER_LIMIT = (None, 64)
ASSOCIATIVE_OPT = (None, False)
BS = {2: (256,), 3: (32, 32)}

#: (stencil, dtype) -> sha256 over the matrix's valid configurations.
GOLDEN = {
    ("star2d1r", "float"): "6817a7720f8be8e50f50ddd6e600e13dbac55a3999bf540534b636aef38e0298",
    ("star2d1r", "double"): "d325d797be006b6de4e3b9929a4dbeadf37f31a296ac60041ccd173c311127f1",
    ("box2d1r", "float"): "dcfb220b06e1bd4cb39796e0681d0764c51aefc03cc5053acee269267de530e9",
    ("box2d1r", "double"): "df4e6f5d6b8cadaf51cebf20832602981721f148de3d1f1cde7a7affdb06f930",
    ("star2d2r", "float"): "c471593e8624b7b9e505c9286a3aaa2bf09d6e817d8602a38c46a2c8f9b0983d",
    ("star2d2r", "double"): "1a9ef50d7ae6c17573f507148cdf53b6748319bba10590bd377fc1e760040858",
    ("box2d2r", "float"): "5d9e9da81d66155ccbc6b707766cffd7ca4e5b6bed0c72ffefa50bbfaa201409",
    ("box2d2r", "double"): "c05dcbbe3979f16678a8c0a3e388841b0eef8b985158f323f727e2311093f3d0",
    ("star2d3r", "float"): "34abe341ce9f9ac60c734363b8a9fd344ff035fb918dacb442dcec30cac2bb17",
    ("star2d3r", "double"): "3a9c7f940b440b9fd3e26a6c9e8018718c1260c02c972ae9496949359500ed03",
    ("box2d3r", "float"): "dbc398c9f537495cf95326942ef23f680840d95ad6ba57e298b9f734507bbbbe",
    ("box2d3r", "double"): "628ffd69ca26d233e6ec10a1eafb885dcc864763d4b9f94d96b99501b67f337c",
    ("star2d4r", "float"): "8e558e78be552cf4fef7b8c34915ef1021b8c130d9984117c936b0bf9a507674",
    ("star2d4r", "double"): "d5d26ba7bd9d5c9831568aee164dacc806dc9bc79140b0f2c713e2e6a77c9b53",
    ("box2d4r", "float"): "b6d39e24bd78e9076c97e345bf4dbb618e7db5fc381b8cd1f1b76b09f50cdb29",
    ("box2d4r", "double"): "3d00ade1a597231f4c27c031417acf056c313632e33ca335fed39108af6b36a6",
    ("star3d1r", "float"): "c143575f02522677c4492d364c0b7d853e83d4bf56eb56e39a2b12990f119ba3",
    ("star3d1r", "double"): "ea6c2c4b1ec9566034a633cf305909996d0a633205376df0ae41a1083b34debc",
    ("box3d1r", "float"): "70aff621aa51f42f698b9729cef5a2d4752ccad6a9e54a48316824093f7841d2",
    ("box3d1r", "double"): "af91b195b64ad2caf086028a2df680af4783d64842538f79a189986687a9bc94",
    ("star3d2r", "float"): "921c71cd0346fae2f09d09ad4d069b1456601d8c34bdc147ecc7070aebbf9712",
    ("star3d2r", "double"): "fb6e7088004bf332d4b729475bd8581ddf3cb31d34c4c52929955d4ec57ffd1e",
    ("box3d2r", "float"): "afcdee2aac3865160ed72ed34478d06496e55289b829e22376e3035eb6fc4628",
    ("box3d2r", "double"): "2a82c6c063e043d97f516ae2142b90b80d911e58445f303f8d4d0757999a63af",
    ("star3d3r", "float"): "6841ec271f3f1df252adbbc4e0301c85c77614a41ac559c7e2f10bf65809fcfb",
    ("star3d3r", "double"): "3d34e2ede724b5cb9a510d3543b94cb31a7379f0e9a1515f2fa5d6263a8f7a0d",
    ("box3d3r", "float"): "4c9acfffbaa3172624fc2e5c1b9421eda0663ddf11ac808dfa92ca42e5f770bc",
    ("box3d3r", "double"): "3f092b1ff5dc3d8c9b0e4203a505c9e4c7db7a4222f3bb9e56b1cd2f176d9c60",
    ("star3d4r", "float"): "494cbdd87d5a6b399e6a731c75d6a21328a229aaff07a9d34df769fdafb621a5",
    ("star3d4r", "double"): "15159038af1551b56af11b2a2c418f7d26a15501eecae0a57ff1b75081d80d84",
    ("box3d4r", "float"): "7605e15e68afc1dd4ef52a1e07df409959da19d4cf06c71a0b85c00a31926ec3",
    ("box3d4r", "double"): "b75ff1240efe1df4278d877938632712be60be5fd781fb91923c5c11a473c64e",
    ("j2d5pt", "float"): "8194517a211334fa5dfd905d4090cf4bbda94811f153992e98f5730bf4f96494",
    ("j2d5pt", "double"): "02cb5158e5e9de6d36eed3e3ed77c44e5fe1ea367a12d5056f35f43820a6ec76",
    ("j2d9pt", "float"): "1d51b32be4240decb2773d73455420bd63743b0f001d0fae15e746d36a31206c",
    ("j2d9pt", "double"): "cfbd70152088e8218aafcffcd246b1bc6d8493b77bc9dbaa8e4137e4cb377b39",
    ("j2d9pt-gol", "float"): "72970693f303841c7f23aeb2f1da475a6a51ab7079ea0821d6e4d6f0c56a4221",
    ("j2d9pt-gol", "double"): "8b10289d84baeed244c2c0b25007609cc78834ed205a97a2af459aa6ebe9c139",
    ("gradient2d", "float"): "56e1313ae1655332d1897adbcf647953af30f3aaaefd43a007a43590870bae92",
    ("gradient2d", "double"): "a9dc21054b94dc0a906111caa69e44d54c871b9c01b2d574aac5ee66320620b1",
    ("j3d27pt", "float"): "9ff289e39e55f21d7f9f0ece5ec7ea25f6a7f2669aabe3d2faa7bb3751f0a151",
    ("j3d27pt", "double"): "8b7a0abab48b71837173ac309029bcf67137e49b308804dc270ffc0b164ba9aa",
}

#: Valid configurations in the matrix: every (stencil, bT) pair but the eight
#: 3-D ones whose 32-wide blocks leave no compute region.
VALID_CONFIGS = 3104


def _configs(pattern):
    matrix = itertools.product(BT, HS, DOUBLE_BUFFER, REGISTER_LIMIT, ASSOCIATIVE_OPT)
    for bT, hS, double_buffer, register_limit, associative_opt in matrix:
        config = BlockingConfig(
            bT=bT,
            bS=BS[pattern.ndim],
            hS=hS,
            register_limit=register_limit,
            double_buffer=double_buffer,
            associative_opt=associative_opt,
        )
        if config.is_valid(pattern):
            yield config


def _digest(pattern):
    digest = hashlib.sha256()
    count = 0
    for config in _configs(pattern):
        package = generate_cuda(an5d_transform(pattern, config))
        for text in (package.kernel_name, package.host_name,
                     package.kernel_source, package.host_source):
            digest.update(text.encode())
            digest.update(b"\0")
        count += 1
    return digest.hexdigest(), count


def test_emitted_cuda_matches_the_recorded_digests():
    digests = {}
    total = 0
    for name in BENCHMARKS:
        for dtype in ("float", "double"):
            digests[name, dtype], count = _digest(load_pattern(name, dtype))
            total += count
    assert total == VALID_CONFIGS
    assert digests == GOLDEN
