"""Golden-manifest pin: the on-disk manifest format is frozen.

``tests/data/golden_manifest_v1.json`` is a committed byte-exact fixture
of one small version-1 manifest.  These tests pin

- **byte-stable serialization** — rebuilding the same manifest from
  Python values must reproduce the fixture bytes exactly (key order,
  separators, trailing newline, ASCII encoding), so checkpoints written
  by one build restore under any later build;
- **round-tripping** — ``from_bytes(to_bytes(m)) == m``;
- **version fencing** — unknown schema versions (and unversioned or
  malformed blobs) are rejected with the typed :class:`ManifestError`,
  which the resilient restore treats as "this generation is unreadable",
  never as silently-wrong data.

If a refactor changes the serialization, this test failing is the
signal that ``MANIFEST_VERSION`` must be bumped and a migration written
— do not regenerate the fixture to make it pass.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.incremental import (
    MANIFEST_VERSION,
    ChunkingParams,
    ChunkRef,
    Manifest,
    ManifestError,
    ManifestSection,
)
from repro.faults import UnrecoverableCheckpointError

GOLDEN = Path(__file__).parent / "data" / "golden_manifest_v1.json"


def golden_manifest() -> Manifest:
    """The fixture's content, rebuilt from Python values."""
    return Manifest(
        strategy="rbio", step=3, parent=2, header_bytes=256,
        chunking=ChunkingParams(min_size=256, avg_size=1024, max_size=4096),
        sections=(
            ManifestSection(member=0, field_sizes=(96, 64), chunks=(
                ChunkRef(0, 100, 0x1A2B3C4D,
                         "00112233445566778899aabbccddeeff", 3, 256),
                ChunkRef(100, 60, 0x0,
                         "ffeeddccbbaa99887766554433221100", 2, 900),
            )),
            ManifestSection(member=1, field_sizes=(96, 64), chunks=(
                ChunkRef(0, 160, 0xDEADBEEF,
                         "0123456789abcdef0123456789abcdef", 3, 356),
            )),
        ),
    )


def test_serialization_is_byte_stable():
    assert golden_manifest().to_bytes() == GOLDEN.read_bytes()


def test_golden_round_trips():
    manifest = Manifest.from_bytes(GOLDEN.read_bytes())
    assert manifest == golden_manifest()
    assert manifest.to_bytes() == GOLDEN.read_bytes()
    assert manifest.version == MANIFEST_VERSION == 1
    assert manifest.fresh_bytes == 100 + 160  # src_step == step chunks only


def test_unknown_version_is_rejected():
    d = json.loads(GOLDEN.read_bytes())
    d["version"] = MANIFEST_VERSION + 1
    with pytest.raises(ManifestError, match="unsupported manifest version"):
        Manifest.from_bytes(json.dumps(d).encode())


@pytest.mark.parametrize("blob", [
    b"",                          # empty file (aborted write)
    b"not json at all",           # garbage
    b"[1, 2, 3]",                 # JSON, wrong shape
    b"{\"strategy\": \"rbio\"}",  # unversioned object
    GOLDEN.read_bytes()[:-40],    # truncated mid-write
])
def test_malformed_blobs_raise_typed_error(blob):
    with pytest.raises(ManifestError):
        Manifest.from_bytes(blob)


def test_manifest_error_is_an_unrecoverable_checkpoint_error():
    """Restore voting fences unreadable manifests like any bad generation."""
    assert issubclass(ManifestError, UnrecoverableCheckpointError)


# ---------------------------------------------------------------------------
# Numbers are validated, never coerced
# ---------------------------------------------------------------------------

_N = st.integers(0, 1 << 40)
_CHUNK = st.builds(ChunkRef, _N, _N, st.integers(0, (1 << 32) - 1),
                   st.text("0123456789abcdef", min_size=32, max_size=32), _N, _N)
_SECTION = st.builds(ManifestSection, _N, st.lists(_N, max_size=4).map(tuple),
                     st.lists(_CHUNK, max_size=3).map(tuple))
_MANIFEST = st.builds(
    Manifest, st.sampled_from(["rbio", "coio", "1pfpp", "bbio"]), _N,
    st.none() | _N, _N,
    st.sampled_from([ChunkingParams(), ChunkingParams(256, 1024, 4096)]),
    st.lists(_SECTION, max_size=3).map(tuple))


def _number_paths(node, path=()):
    """Where a manifest's dict form holds a number."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _number_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _number_paths(value, path + (i,))
    elif type(node) is int:
        yield path


@settings(max_examples=150, deadline=None)
@given(manifest=_MANIFEST)
def test_valid_manifests_round_trip(manifest):
    assert Manifest.from_bytes(manifest.to_bytes()) == manifest


@settings(max_examples=300, deadline=None)
@given(manifest=_MANIFEST, data=st.data())
def test_a_mutated_number_raises_manifest_error(manifest, data):
    """One number of a valid manifest made a float, a bool, a numeric
    string or a negative: the manifest is damaged, and ``from_bytes``
    says so with :class:`ManifestError` rather than coercing it."""
    d = manifest.to_dict()
    path = data.draw(st.sampled_from(list(_number_paths(d))))
    *parents, leaf = path
    node = d
    for key in parents:
        node = node[key]
    value = node[leaf]
    node[leaf] = data.draw(st.sampled_from(
        [value + 0.5, float(value), True, False, str(value), -value - 1]))
    with pytest.raises(ManifestError):
        Manifest.from_bytes(json.dumps(d).encode())


@pytest.mark.parametrize("section", [
    {"member": 2.7, "field_sizes": [4.5, True], "chunks": []},
    {"member": 2, "field_sizes": ["12"], "chunks": []},
    {"member": 2, "field_sizes": [-4], "chunks": []},
    {"member": 2, "field_sizes": [4], "chunks": [[0, 4, 0, 7, 1, 0]]},
])
def test_a_section_is_not_coerced(section):
    with pytest.raises(ManifestError):
        ManifestSection.from_dict(section)
