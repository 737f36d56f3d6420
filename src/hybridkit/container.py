"""Single-file named-tensor container.

Layout: 8-byte little-endian header length, then a UTF-8 JSON header, then a
packed payload. The header maps tensor-name -> {dtype, shape, byte_offset,
byte_length}; offsets are relative to the payload start and 8-byte aligned.
Values are little-endian IEEE-754 float32. A reserved "__meta__" header key
carries model-level metadata (kind, config, layout) and is not a tensor.
"""

import json
import math
import warnings

import numpy as np

HEADER_PREFIX_BYTES = 8
ALIGN = 8
META_KEY = "__meta__"


class ContainerError(ValueError):
    """Malformed container file."""


def write_container(path, tensors: dict, meta: dict | None = None) -> None:
    """Write name->array tensors (stored as float32) plus optional metadata."""
    index = {}
    chunks = []
    offset = 0
    for name, arr in tensors.items():
        arr32 = np.require(arr, "<f4", "C")  # keeps a 0-d shape
        byte_length = arr32.nbytes
        index[name] = {
            "dtype": "f32",
            "shape": list(arr32.shape),
            "byte_offset": offset,
            "byte_length": byte_length,
        }
        chunks.append(arr32)
        offset += byte_length
        pad = (-offset) % ALIGN
        if pad:
            chunks.append(b"\x00" * pad)
            offset += pad
    if meta is not None:
        index[META_KEY] = meta
    header = json.dumps(index).encode("utf-8")
    header += b" " * ((-HEADER_PREFIX_BYTES - len(header)) % ALIGN)
    with open(path, "wb") as f:
        f.write(len(header).to_bytes(HEADER_PREFIX_BYTES, "little"))
        f.write(header)
        for chunk in chunks:
            f.write(chunk)


def read_container(path, expected=None):
    """Read back (tensors, meta). Tensors come out float64 on the f32 grid.

    `expected` maps each tensor name the file must hold to its shape, or is
    a function of the metadata that returns such a map (None to skip the
    check). A missing name or a wrong shape raises ContainerError naming the
    tensor and the file; unexpected names load anyway but are reported as
    warnings.
    """
    with open(path, "rb") as f:
        prefix = f.read(HEADER_PREFIX_BYTES)
        if len(prefix) < HEADER_PREFIX_BYTES:
            raise ContainerError("file too short for header length prefix")
        header_len = int.from_bytes(prefix, "little")
        header_bytes = f.read(header_len)
        if len(header_bytes) < header_len:
            raise ContainerError("file truncated inside header")
        try:
            index = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ContainerError(f"malformed JSON header: {e}") from e
        if not isinstance(index, dict):
            raise ContainerError("header is not a JSON object")
        payload = f.read()

    meta = index.pop(META_KEY, None)
    spans = []
    tensors = {}
    for name, entry in index.items():
        try:
            dtype = entry["dtype"]
            shape = tuple(int(s) for s in entry["shape"])
            byte_offset = int(entry["byte_offset"])
            byte_length = int(entry["byte_length"])
        except (TypeError, KeyError) as e:
            raise ContainerError(f"tensor {name!r}: incomplete index entry") from e
        if min(shape, default=0) < 0 or byte_offset < 0 or byte_length < 0:
            raise ContainerError(
                f"tensor {name!r}: negative shape, byte_offset or byte_length "
                f"(shape {list(shape)}, byte_offset {byte_offset}, byte_length {byte_length})")
        if dtype != "f32":
            raise ContainerError(f"tensor {name!r}: unsupported dtype {dtype!r}")
        n_elem = math.prod(shape)
        if byte_length != 4 * n_elem:
            raise ContainerError(
                f"tensor {name!r}: byte_length {byte_length} != 4*prod(shape) {4 * n_elem}")
        if byte_offset % ALIGN != 0:
            raise ContainerError(f"tensor {name!r}: offset {byte_offset} not 8-byte aligned")
        if byte_offset + byte_length > len(payload):
            raise ContainerError(f"tensor {name!r}: payload shorter than index")
        spans.append((byte_offset, byte_offset + byte_length, name))
        raw = np.frombuffer(payload, dtype="<f4", count=n_elem, offset=byte_offset)
        if not np.isfinite(raw).all():
            raise ContainerError(f"tensor {name!r}: non-finite payload values")
        tensors[name] = raw.reshape(shape).astype(np.float64)

    spans.sort()
    for (s0, e0, n0), (s1, _e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise ContainerError(f"tensors {n0!r} and {n1!r} overlap in payload")

    if callable(expected):
        expected = expected(meta)
    if expected is not None:
        missing = sorted(set(expected) - set(tensors))
        if missing:
            raise ContainerError(f"{path}: missing tensor {', '.join(missing)}")
        for name, shape in expected.items():
            if tensors[name].shape != tuple(shape):
                raise ContainerError(f"{path}: tensor {name} has shape "
                                     f"{tensors[name].shape}, expected {tuple(shape)}")
        extras = sorted(set(tensors) - set(expected))
        if extras:
            warnings.warn(f"container has unknown extra tensors: {extras}")
    return tensors, meta
