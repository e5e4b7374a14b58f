"""Server platform specifications (Table 1 of the paper).

A :class:`PlatformSpec` bundles a microarchitecture, cache hierarchy,
frequency, core topology, memory, disk, and network. The three concrete
platforms mirror the paper's heterogeneous validation cluster:

=========  ============  ============  ============
field      Platform A    Platform B    Platform C
=========  ============  ============  ============
CPU        Gold 6152     E5-2660 v3    E3-1240 v5
Freq       2.10 GHz      2.60 GHz      3.50 GHz
Cores      22 x 2        10 x 2        4 x 1
uArch      Skylake       Haswell       Skylake
L2         1 MB          256 KB        256 KB
LLC        30.25 MB      25 MB         8 MB
RAM        192GB@2666    128GB@2400    32GB@2133
Disk       1 TB SSD      2 TB HDD      1 TB HDD
Network    10 GbE        1 GbE         1 GbE
=========  ============  ============  ============
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.hw.cache import CacheConfig, CacheHierarchy
from repro.hw.core import ExecutionContext
from repro.isa.ports import (
    ALL_UARCHES,
    HASWELL,
    SKYLAKE_CLIENT,
    SKYLAKE_SERVER,
    UArch,
)
from repro.util.errors import ConfigurationError

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class DiskSpec:
    """A storage device: access latency plus streaming bandwidth."""

    kind: str                    # "ssd" | "hdd"
    capacity_bytes: int
    read_latency_s: float        # per-request device latency
    write_latency_s: float
    bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.kind not in ("ssd", "hdd"):
            raise ConfigurationError(f"unknown disk kind {self.kind!r}")
        for name in ("read_latency_s", "write_latency_s", "bandwidth_bytes_per_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

@dataclass(frozen=True)
class NetworkSpec:
    """A NIC / link: bandwidth plus per-message base latency."""

    bandwidth_bits_per_s: float
    base_latency_s: float = 30e-6   # same-rack RTT/2 incl. stack traversal

    def __post_init__(self) -> None:
        if self.bandwidth_bits_per_s <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.base_latency_s < 0:
            raise ConfigurationError("base latency must be non-negative")

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Link bandwidth in bytes/second."""
        return self.bandwidth_bits_per_s / 8.0

@dataclass(frozen=True)
class PlatformSpec:
    """One server platform."""

    name: str
    cpu_model: str
    uarch: UArch
    base_frequency_ghz: float
    cores_per_socket: int
    sockets: int
    smt_ways: int
    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    llc: CacheConfig
    memory_latency_ns: float
    ram_bytes: int
    disk: DiskSpec
    network: NetworkSpec

    def __post_init__(self) -> None:
        if self.base_frequency_ghz <= 0:
            raise ConfigurationError("frequency must be positive")
        if self.cores_per_socket < 1 or self.sockets < 1:
            raise ConfigurationError("core/socket counts must be >= 1")

    @property
    def total_cores(self) -> int:
        """Physical cores across sockets."""
        return self.cores_per_socket * self.sockets

    def frequency_hz(self, frequency_ghz: Optional[float] = None) -> float:
        """Clock in Hz, with an optional DVFS override (Fig. 11)."""
        freq = frequency_ghz if frequency_ghz is not None else self.base_frequency_ghz
        if freq <= 0:
            raise ConfigurationError("frequency must be positive")
        return freq * 1e9

    def cycles_to_seconds(
        self, cycles: float, frequency_ghz: Optional[float] = None
    ) -> float:
        """Convert core cycles to wall-clock seconds."""
        return cycles / self.frequency_hz(frequency_ghz)

    def hierarchy(self, frequency_ghz: Optional[float] = None) -> CacheHierarchy:
        """The per-core cache hierarchy with DRAM latency in cycles.

        DRAM latency in *cycles* scales with the clock: a faster core waits
        more cycles for the same wall-clock DRAM access.
        """
        freq = frequency_ghz if frequency_ghz is not None else self.base_frequency_ghz
        memory_cycles = self.memory_latency_ns * freq
        return CacheHierarchy(self.l1i, self.l1d, self.l2, self.llc, memory_cycles)

    def context(
        self,
        frequency_ghz: Optional[float] = None,
        **overrides,
    ) -> ExecutionContext:
        """A default :class:`ExecutionContext` for this platform."""
        return ExecutionContext(
            uarch=self.uarch,
            caches=self.hierarchy(frequency_ghz),
            **overrides,
        )


def _cache(name: str, size: int, assoc: int, latency: float) -> CacheConfig:
    return CacheConfig(name=name, size_bytes=size, associativity=assoc,
                       latency_cycles=latency)


PLATFORM_A = PlatformSpec(
    name="A",
    cpu_model="Xeon Gold 6152",
    uarch=SKYLAKE_SERVER,
    base_frequency_ghz=2.10,
    cores_per_socket=22,
    sockets=2,
    smt_ways=2,
    l1i=_cache("l1i", 32 * KB, 8, 4),
    l1d=_cache("l1d", 32 * KB, 8, 4),
    l2=_cache("l2", 1 * MB, 16, 14),
    llc=_cache("llc", 30 * MB + 256 * KB, 11, 50),
    memory_latency_ns=85.0,
    ram_bytes=192 * GB,
    disk=DiskSpec("ssd", 1024 * GB, read_latency_s=90e-6, write_latency_s=110e-6,
                  bandwidth_bytes_per_s=520e6),
    network=NetworkSpec(bandwidth_bits_per_s=10e9),
)

PLATFORM_B = PlatformSpec(
    name="B",
    cpu_model="Xeon E5-2660 v3",
    uarch=HASWELL,
    base_frequency_ghz=2.60,
    cores_per_socket=10,
    sockets=2,
    smt_ways=2,
    l1i=_cache("l1i", 32 * KB, 8, 4),
    l1d=_cache("l1d", 32 * KB, 8, 4),
    l2=_cache("l2", 256 * KB, 8, 12),
    llc=_cache("llc", 25 * MB, 20, 45),
    memory_latency_ns=95.0,
    ram_bytes=128 * GB,
    disk=DiskSpec("hdd", 2048 * GB, read_latency_s=4.2e-3, write_latency_s=4.6e-3,
                  bandwidth_bytes_per_s=160e6),
    network=NetworkSpec(bandwidth_bits_per_s=1e9),
)

PLATFORM_C = PlatformSpec(
    name="C",
    cpu_model="Xeon E3-1240 v5",
    uarch=SKYLAKE_CLIENT,
    base_frequency_ghz=3.50,
    cores_per_socket=4,
    sockets=1,
    smt_ways=2,
    l1i=_cache("l1i", 32 * KB, 8, 4),
    l1d=_cache("l1d", 32 * KB, 8, 4),
    l2=_cache("l2", 256 * KB, 4, 12),
    llc=_cache("llc", 8 * MB, 16, 42),
    memory_latency_ns=98.0,
    ram_bytes=32 * GB,
    disk=DiskSpec("hdd", 1024 * GB, read_latency_s=4.5e-3, write_latency_s=5.0e-3,
                  bandwidth_bytes_per_s=140e6),
    network=NetworkSpec(bandwidth_bits_per_s=1e9),
)

_PLATFORMS: Dict[str, PlatformSpec] = {
    "A": PLATFORM_A, "B": PLATFORM_B, "C": PLATFORM_C,
}


def platform_by_name(name: str) -> PlatformSpec:
    """Look a platform up by its Table 1 letter or registered name."""
    spec = _PLATFORMS.get(name)
    if spec is None:
        spec = _PLATFORMS.get(name.upper())
    if spec is None:
        raise ConfigurationError(
            f"unknown platform {name!r}; expected one of {sorted(_PLATFORMS)}"
        ) from None
    return spec


def register_platform(name: str, spec: PlatformSpec) -> PlatformSpec:
    """Register ``spec`` under ``name`` for :func:`platform_by_name`.

    Migration destinations are not limited to the paper's built-in
    A/B/C cluster — differently-shaped platforms (custom cache
    hierarchies, node counts, NICs) register here and become valid
    ``--destination`` targets everywhere a platform name is accepted.
    Re-registering the same name with an equal spec is an idempotent
    no-op; a *conflicting* re-registration raises, so a typo can never
    silently redefine what an existing experiment means.
    """
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"platform name must be a non-empty string, got {name!r}")
    if not isinstance(spec, PlatformSpec):
        raise ConfigurationError(
            f"spec must be a PlatformSpec, got {spec!r}")
    existing = _PLATFORMS.get(name)
    if existing is not None and existing != spec:
        raise ConfigurationError(
            f"platform {name!r} is already registered with a different "
            f"spec; pick another name")
    _PLATFORMS[name] = spec
    return spec


def _encode_cache(cache: CacheConfig) -> dict:
    return {"name": cache.name, "size_bytes": cache.size_bytes,
            "associativity": cache.associativity,
            "latency_cycles": cache.latency_cycles}


def _decode_cache(level: str, data: dict) -> CacheConfig:
    return CacheConfig(name=data.get("name", level),
                       size_bytes=data["size_bytes"],
                       associativity=data["associativity"],
                       latency_cycles=data["latency_cycles"])


def platform_to_dict(spec: PlatformSpec) -> dict:
    """JSON-safe form of a platform (inverse of
    :func:`platform_from_dict`). The microarchitecture travels by name
    (one of ``repro.isa.ports.ALL_UARCHES``), not by value — uarch
    port tables are model code, not configuration."""
    return {
        "name": spec.name,
        "cpu_model": spec.cpu_model,
        "uarch": spec.uarch.name,
        "base_frequency_ghz": spec.base_frequency_ghz,
        "cores_per_socket": spec.cores_per_socket,
        "sockets": spec.sockets,
        "smt_ways": spec.smt_ways,
        "caches": {level: _encode_cache(getattr(spec, level))
                   for level in ("l1i", "l1d", "l2", "llc")},
        "memory_latency_ns": spec.memory_latency_ns,
        "ram_bytes": spec.ram_bytes,
        "disk": {"kind": spec.disk.kind,
                 "capacity_bytes": spec.disk.capacity_bytes,
                 "read_latency_s": spec.disk.read_latency_s,
                 "write_latency_s": spec.disk.write_latency_s,
                 "bandwidth_bytes_per_s": spec.disk.bandwidth_bytes_per_s},
        "network": {"bandwidth_bits_per_s":
                    spec.network.bandwidth_bits_per_s,
                    "base_latency_s": spec.network.base_latency_s},
    }


def platform_from_dict(data: dict) -> PlatformSpec:
    """Build a :class:`PlatformSpec` from :func:`platform_to_dict` output."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"platform document must be an object, got {data!r}")
    uarch_name = data.get("uarch", "")
    uarch = ALL_UARCHES.get(uarch_name)
    if uarch is None:
        raise ConfigurationError(
            f"unknown uarch {uarch_name!r}; expected one of "
            f"{sorted(ALL_UARCHES)}")
    try:
        caches = data["caches"]
        disk = data["disk"]
        network = data["network"]
        return PlatformSpec(
            name=data["name"],
            cpu_model=data.get("cpu_model", ""),
            uarch=uarch,
            base_frequency_ghz=data["base_frequency_ghz"],
            cores_per_socket=data["cores_per_socket"],
            sockets=data["sockets"],
            smt_ways=data.get("smt_ways", 1),
            l1i=_decode_cache("l1i", caches["l1i"]),
            l1d=_decode_cache("l1d", caches["l1d"]),
            l2=_decode_cache("l2", caches["l2"]),
            llc=_decode_cache("llc", caches["llc"]),
            memory_latency_ns=data["memory_latency_ns"],
            ram_bytes=data["ram_bytes"],
            disk=DiskSpec(kind=disk["kind"],
                          capacity_bytes=disk["capacity_bytes"],
                          read_latency_s=disk["read_latency_s"],
                          write_latency_s=disk["write_latency_s"],
                          bandwidth_bytes_per_s=disk[
                              "bandwidth_bytes_per_s"]),
            network=NetworkSpec(
                bandwidth_bits_per_s=network["bandwidth_bits_per_s"],
                base_latency_s=network.get("base_latency_s", 30e-6)),
        )
    except KeyError as error:
        raise ConfigurationError(
            f"platform document is missing field {error}") from None


def load_platform_spec(path, *, register: bool = True) -> PlatformSpec:
    """Load a :class:`PlatformSpec` from a JSON (or YAML) file.

    JSON needs nothing beyond the standard library; ``.yaml``/``.yml``
    files work when PyYAML happens to be importable and raise a clear
    :class:`ConfigurationError` otherwise (this package deliberately
    adds no hard dependency for it). By default the loaded platform is
    also registered, so ``platform_by_name`` (and every CLI platform
    argument) resolves it immediately.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise ConfigurationError(
                f"{path}: YAML platform files need PyYAML, which is not "
                f"installed; convert the file to JSON") from None
        data = yaml.safe_load(text)
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"{path}: not valid JSON ({error})") from None
    spec = platform_from_dict(data)
    if register:
        register_platform(spec.name, spec)
    return spec
