"""Simulation configuration: defaults, JSON loading, validation, hashing,
and the one vocabulary of detectors and weightings that every entry point
checks names against (``check_detector``, ``check_weighting``)."""

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass

from .numerics import _is_integer
from .quantization import distortion_factor


class ConfigError(ValueError):
    """Raised on unparseable files or invariant-violating field values."""


def _is_real(value):
    """Whether ``value`` is a real number: ``float`` takes it, and it is no
    bool or string (``float`` would read True as 1.0 and "5" as 5.0) and no
    integer too large for a float."""
    if value is None or isinstance(value, (bool, str, bytes)):
        return False
    try:
        float(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


# combining detectors per processing scheme, and the second-stage weightings
# of the distributed scheme (both engines; see lsfd.lsfd_weights)
DETECTORS = {
    "distributed": ("mrc", "lmmse", "lpmmse", "lpmmse-full"),
    "centralized": ("mrc", "mmse", "pmmse", "pmmse-full"),
}
WEIGHTINGS = ("lsfd", "plsfd", "l2")


def check_detector(scheme, name):
    """Raise ``ConfigError`` unless ``scheme`` is a processing scheme and
    ``name`` one of its detectors."""
    # a tuple: an unhashable scheme (a JSON list) is a miss, not a TypeError
    if scheme not in tuple(DETECTORS):
        raise ConfigError(f"scheme must be {'|'.join(DETECTORS)}, got {scheme!r}")
    if name not in DETECTORS[scheme]:
        raise ConfigError(f"{name!r} is not a {scheme} detector; the {scheme} "
                          f"scheme takes {'|'.join(DETECTORS[scheme])}")


def check_weighting(name):
    """Raise ``ConfigError`` unless ``name`` is a second-stage weighting."""
    if name not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting {name!r}; choose from {'|'.join(WEIGHTINGS)}")


@dataclass
class SimConfig:
    # network geometry
    L: int = 64                 # access points
    K: int = 40                 # user terminals
    N: int = 2                  # antennas per AP (half-wavelength ULA)
    area_side: float = 1000.0   # m, square deployment region

    # frame structure
    tau: int = 10               # pilot symbols per coherence block
    tau_c: int = 200            # coherence block length in symbols

    # radio parameters
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 5.0
    sigma2_dbm: float | None = None  # derived from bandwidth + noise figure unless set
    p_max_mw: float = 100.0          # per-UE transmit power budget

    # converter resolutions; None means ideal (zero distortion)
    b_da: int | None = 4
    b_ad: int | None = 4

    # channel statistics
    asd_deg: float = 15.0       # angular standard deviation of local scattering
    fading: str = "rician"      # "rician" or "rayleigh"

    # scheduler (cluster formation / pilot assignment / power control)
    eta_db: float = -20.0       # secondary-AP admission threshold
    nu: float = 0.8             # fractional power-control exponent in [0, 1]
    d_bar: float | None = None  # candidate-AP radius; None = area diagonal
    iterations: int = 2         # refinement passes of the joint algorithm

    # evaluation
    scheme: str = "distributed"   # "distributed" or "centralized"
    detector: str = "mrc"         # mrc | lmmse | lpmmse | lpmmse-full | mmse | pmmse | pmmse-full
    weighting: str = "lsfd"       # one of WEIGHTINGS (distributed scheme only)
    trials: int = 1000            # Monte Carlo realizations
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name in ("L", "K", "N", "tau", "tau_c", "trials", "iterations"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("b_da", "b_ad"):
            b = getattr(self, name)
            if b is not None and not (_is_integer(b) and b >= 1):
                raise ConfigError(f"{name} must be an integer >= 1 or null "
                                  f"(ideal), got {b!r}")
            try:
                distortion_factor(b)
            except OverflowError:
                raise ConfigError(f"{name} is too large for the distortion "
                                  f"law sqrt(3) pi 2^(-2b-1)") from None
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        for name in ("area_side", "bandwidth_hz", "noise_figure_db", "sigma2_dbm",
                     "p_max_mw", "asd_deg", "eta_db", "nu", "d_bar"):
            value = getattr(self, name)
            if value is None and name in ("sigma2_dbm", "d_bar"):     # nullable
                continue
            if not _is_real(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        for name in ("area_side", "bandwidth_hz", "p_max_mw", "asd_deg"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        # a spread wider than half a turn is outside the local-scattering
        # model, and the quadrature takes minutes to give up on one
        if self.asd_deg > 180.0:
            raise ConfigError(f"asd_deg must be at most 180, got {self.asd_deg}")
        if math.radians(self.asd_deg) ** 2 < sys.float_info.min:
            raise ConfigError(f"asd_deg must be large enough that its square "
                              f"in radians is a normal float, got {self.asd_deg}")
        for name in ("noise_figure_db", "sigma2_dbm", "eta_db"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        try:
            sigma2 = self.sigma2_mw
        except OverflowError:
            sigma2 = math.inf
        if not (math.isfinite(sigma2) and sigma2 > 0):
            source = ("sigma2_dbm" if self.sigma2_dbm is not None
                      else "bandwidth_hz and noise_figure_db")
            raise ConfigError(f"the noise power from {source} must be a finite "
                              f"positive number of mW, got {sigma2:g}")
        if self.d_bar is not None and not self.d_bar > 0:
            raise ConfigError(f"d_bar must be positive or null (area diagonal), "
                              f"got {self.d_bar}")
        if not self.tau < self.tau_c:
            raise ConfigError(f"tau ({self.tau}) must be < tau_c ({self.tau_c})")
        if not 0.0 < self.prelog < 1.0:     # tau/tau_c rounded to 0 or 1
            raise ConfigError(f"tau_c must leave the prelog 1 - tau/tau_c "
                              f"inside (0, 1) as a float, got {self.prelog}")
        if not 0.0 <= self.nu <= 1.0:
            raise ConfigError(f"nu must lie in [0, 1], got {self.nu}")
        if self.fading not in ("rician", "rayleigh"):
            raise ConfigError(f"fading must be rician|rayleigh, got {self.fading!r}")
        check_detector(self.scheme, self.detector)
        check_weighting(self.weighting)

    @property
    def sigma2_mw(self):
        """Noise power in mW: -174 dBm/Hz + 10 log10(B) + noise figure unless overridden."""
        dbm = self.sigma2_dbm
        if dbm is None:
            dbm = -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db
        return 10.0 ** (dbm / 10.0)

    @property
    def asd_rad(self):
        return math.radians(self.asd_deg)

    @property
    def prelog(self):
        return 1.0 - self.tau / self.tau_c

    def replace(self, **kwargs):
        return dataclasses.replace(self, **kwargs)

    def to_dict(self):
        return dataclasses.asdict(self)


def load_config(path):
    """Read a JSON config; empty file gives full defaults, unknown keys error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not text.strip():
        data = {}
    else:
        try:    # ValueError: bad JSON, or an int past Python's digit limit
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(SimConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    return SimConfig(**data)


def config_hash(cfg):
    """Short stable digest of the full configuration, for result provenance."""
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
