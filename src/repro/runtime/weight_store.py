"""Shared-memory weight store: place each weight buffer exactly once.

A :class:`WeightStore` packs a model's weight feeds into a single
``multiprocessing.shared_memory`` segment. Every serving replica (process)
maps the segment and binds zero-copy numpy views: the arrays are already
C-contiguous float64 (the execution dtype), so the plan binder passes them
through untouched and K replicas pay for one copy of the weights instead
of K. This extends the zero-stride broadcast aliasing that
:class:`~repro.runtime.executor.BatchedExecutionPlan` uses across batch
lanes to views shared across processes — safe for the same reason: every
reader sees the same immutable bytes.

The packed blob is also persisted to disk (``<cache_dir>/weights/<key>``,
keyed by a content address like the compile cache: program structure +
per-weight digests + layout version), so a cold server restores its weights
with one sequential read instead of re-converting them. A restored blob is
checked against the same per-weight digests the key is built from; a blob
that is short, unreadable or holds other bytes is a miss — rebuilt from
the given weights and overwritten — and never serves.

Lifecycle: the creating process owns the segment and must :meth:`unlink`
it when serving stops; attaching processes :meth:`close` their mapping.
Attachers deregister from the multiprocessing resource tracker — otherwise
the first worker to exit would unlink the segment under everyone else
(bpo-38119).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.cache.compile_cache import default_cache_dir
from repro.cache.keys import _digest
from repro.errors import ExecutionError
from repro.graph.te_program import TEProgram
from repro.runtime.executor import EXEC_DTYPE, ExecutionPlan

# Bump to invalidate every persisted weight blob (slot layout or key
# changed).
WEIGHT_STORE_VERSION = 2

# Slot alignment inside the segment (cache-line friendly; numpy is happy
# with any alignment, this just keeps slot starts tidy).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class WeightSlot:
    """One array's placement inside the segment."""

    name: str
    offset: int
    shape: Tuple[int, ...]

    @property
    def num_elements(self) -> int:
        n = 1
        for extent in self.shape:
            n *= int(extent)
        return n

    @property
    def nbytes(self) -> int:
        return self.num_elements * np.dtype(EXEC_DTYPE).itemsize

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "offset": self.offset,
            "shape": list(self.shape),
        }

    @staticmethod
    def from_dict(doc: dict) -> "WeightSlot":
        return WeightSlot(
            name=doc["name"],
            offset=int(doc["offset"]),
            shape=tuple(int(s) for s in doc["shape"]),
        )


@dataclass
class WeightManifest:
    """Everything a replica needs to map the store (picklable, small)."""

    key: str
    shm_name: str
    total_bytes: int
    slots: List[WeightSlot] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "version": WEIGHT_STORE_VERSION,
            "key": self.key,
            "total_bytes": self.total_bytes,
            "slots": [s.to_dict() for s in self.slots],
        }

    @staticmethod
    def from_dict(doc: dict, shm_name: str) -> "WeightManifest":
        if doc.get("version") != WEIGHT_STORE_VERSION:
            raise ExecutionError(
                f"weight blob version {doc.get('version')} != "
                f"{WEIGHT_STORE_VERSION}"
            )
        return WeightManifest(
            key=doc["key"],
            shm_name=shm_name,
            total_bytes=int(doc["total_bytes"]),
            slots=[WeightSlot.from_dict(s) for s in doc["slots"]],
        )


def _digest_of(name: str, arr: np.ndarray) -> list:
    """One weight's identity in a store key: [name, shape, sha256 of its
    bytes]. ``arr`` must already be C-contiguous float64."""
    return [name, list(arr.shape), hashlib.sha256(arr).hexdigest()]


def _weight_digests(weights_by_name: Mapping[str, np.ndarray]) -> List[list]:
    """Per-weight content digests, sorted by name."""
    return [
        _digest_of(
            name,
            np.ascontiguousarray(weights_by_name[name], dtype=EXEC_DTYPE),
        )
        for name in sorted(weights_by_name)
    ]


def weight_store_key(
    program: TEProgram, weights_by_name: Mapping[str, np.ndarray]
) -> str:
    """Content address of one packed weight-set.

    Program structure + per-weight content digest: two servers share a
    blob iff the packed bytes would be byte-identical.
    """
    return _store_key(program, _weight_digests(weights_by_name))


def _store_key(program: TEProgram, digests: List[list]) -> str:
    from repro.cache.keys import program_structural_hash

    return _digest({
        "tier": "weights",
        "version": WEIGHT_STORE_VERSION,
        "program": program_structural_hash(program),
        "weights": digests,
    })


class WeightStore:
    """One shared-memory segment of packed weights."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: WeightManifest,
        owner: bool,
        loaded_from_disk: bool = False,
    ) -> None:
        self._shm = shm
        self.manifest = manifest
        self.owner = owner
        self.loaded_from_disk = loaded_from_disk
        self._closed = False

    # ---- construction ----------------------------------------------------

    @classmethod
    def create(
        cls,
        program: TEProgram,
        plan: ExecutionPlan,
        weights_by_name: Mapping[str, np.ndarray],
        cache_dir: Optional[str] = None,
    ) -> "WeightStore":
        """Pack weights into shm, restoring a warm disk blob when one holds
        exactly these weights.

        ``plan`` converts each weight to the execution representation. On a
        miss — no blob, or one that fails its digest check — the weights
        are packed here and persisted (when a cache directory is
        configured), overwriting any bad blob under the same key.
        """
        if cache_dir is None:
            cache_dir = default_cache_dir()
        digests = _weight_digests(weights_by_name)
        key = _store_key(program, digests)

        blob_path = manifest_path = None
        if cache_dir:
            blob_dir = os.path.join(cache_dir, "weights")
            blob_path = os.path.join(blob_dir, f"{key}.bin")
            manifest_path = os.path.join(blob_dir, f"{key}.json")

        if blob_path and os.path.exists(blob_path) and os.path.exists(
            manifest_path
        ):
            restored = cls._create_from_blob(
                blob_path, manifest_path, key, digests
            )
            if restored is not None:
                return restored

        # Layout: weights in program input order (for determinism).
        slots: List[WeightSlot] = []
        offset = 0
        ordered = [
            t for t in program.inputs if t.name in weights_by_name
        ]
        missing = set(weights_by_name) - {t.name for t in ordered}
        if missing:
            raise ExecutionError(
                f"weights {sorted(missing)} name no program input"
            )
        for t in ordered:
            slot = WeightSlot(t.name, offset, tuple(t.shape))
            slots.append(slot)
            offset = _aligned(offset + slot.nbytes)
        total = max(offset, 1)

        shm = shared_memory.SharedMemory(create=True, size=total)
        manifest = WeightManifest(
            key=key, shm_name=shm.name, total_bytes=total, slots=slots
        )
        store = cls(shm, manifest, owner=True)
        try:
            for t in ordered:
                arr = plan._bind_one(t, weights_by_name[t.name])
                store._view(store._slot(t.name))[...] = arr
            if blob_path:
                store._persist(blob_path, manifest_path)
        except BaseException:
            store.unlink()
            raise
        return store

    @classmethod
    def _create_from_blob(
        cls, blob_path: str, manifest_path: str, key: str,
        digests: List[list],
    ) -> Optional["WeightStore"]:
        """Restore a persisted blob into a fresh segment, or None (a miss).

        The blob must be exactly the manifest's size and every slot must
        hash to the digest it was keyed under; anything else — including
        an unreadable manifest — unlinks the new segment and misses.
        """
        shm = None
        try:
            with open(manifest_path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            total = int(doc["total_bytes"])
            if doc.get("key") != key or os.path.getsize(blob_path) != total:
                return None
            shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
            with open(blob_path, "rb") as f, shm.buf[:total] as dst:
                if f.readinto(dst) != total:
                    raise ValueError(f"short read from {blob_path}")
            manifest = WeightManifest.from_dict(doc, shm_name=shm.name)
            store = cls(shm, manifest, owner=True, loaded_from_disk=True)
            restored = sorted(
                _digest_of(s.name, store._view(s)) for s in manifest.slots
            )
            if restored == digests:
                return store
        except (OSError, ValueError, KeyError, TypeError, ExecutionError):
            pass
        except BaseException:
            cls._discard(shm)
            raise
        cls._discard(shm)
        return None

    @staticmethod
    def _discard(shm: Optional[shared_memory.SharedMemory]) -> None:
        if shm is not None:
            shm.close()
            shm.unlink()

    def _persist(self, blob_path: str, manifest_path: str) -> None:
        os.makedirs(os.path.dirname(blob_path), exist_ok=True)
        tmp = blob_path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(bytes(self._shm.buf[: self.manifest.total_bytes]))
        os.replace(tmp, blob_path)
        tmp = manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(self.manifest.to_dict(), f, sort_keys=True)
        os.replace(tmp, manifest_path)

    @classmethod
    def attach(cls, manifest: WeightManifest) -> "WeightStore":
        """Map an existing segment in a replica process (zero-copy).

        Attachers are multiprocessing children of the owner, so they share
        its resource tracker: their register on attach is a set-idempotent
        no-op and the segment is unlinked exactly once, by the owner. (An
        attacher with its *own* tracker would need to unregister here to
        avoid unlinking the segment when it exits — bpo-38119.)
        """
        shm = shared_memory.SharedMemory(name=manifest.shm_name)
        return cls(shm, manifest, owner=False)

    # ---- views -----------------------------------------------------------

    def _slot(self, name: str) -> WeightSlot:
        for slot in self.manifest.slots:
            if slot.name == name:
                return slot
        raise ExecutionError(f"no weight slot named {name!r} in weight store")

    def _view(self, slot: WeightSlot) -> np.ndarray:
        arr = np.frombuffer(
            self._shm.buf,
            dtype=EXEC_DTYPE,
            count=slot.num_elements,
            offset=slot.offset,
        )
        return arr.reshape(slot.shape)

    def weights_by_name(self) -> Dict[str, np.ndarray]:
        """Zero-copy views of every raw weight (C-contiguous float64)."""
        return {s.name: self._view(s) for s in self.manifest.slots}

    @property
    def total_bytes(self) -> int:
        return self.manifest.total_bytes

    # ---- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            # Live numpy views still reference the buffer; leak the mapping
            # rather than crash — the segment itself dies with unlink().
            # Detach the handle's internals so its __del__ does not retry
            # (and fail again) at interpreter shutdown.
            self._shm._buf = None
            self._shm._mmap = None

    def unlink(self) -> None:
        """Destroy the segment (owner only; call once serving stops)."""
        self.close()
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __repr__(self) -> str:
        return (
            f"<WeightStore {self.manifest.key[:12]}: "
            f"{len(self.manifest.slots)} weights, "
            f"{self.total_bytes} bytes, "
            f"{'owner' if self.owner else 'attached'}>"
        )
