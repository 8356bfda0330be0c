"""Physical constants, unit helpers, and the constants and config-field
mapping the CLI reads at import."""

# Propagation speed used throughout (m/s). The round value keeps the
# textbook identity lambda = 1 cm at 30 GHz exact, which all reference
# figures rely on.
SPEED_OF_LIGHT = 3.0e8

# the deployment scenarios of ``statistics``
PARTIAL_R_PLUS, PARTIAL_R_MINUS = "partial-r-plus", "partial-r-minus"
FULL_VISIBILITY, CONDITIONAL_ON_X0 = "full-visibility", "conditional-on-x0"
SCENARIOS = (PARTIAL_R_PLUS, PARTIAL_R_MINUS, FULL_VISIBILITY, CONDITIONAL_ON_X0)
MIN_MC_SAMPLES = 10_000  # fewest draws ``statistics.monte_carlo`` takes
MIN_SCAN_SAMPLES = 64  # fewest samples a ``kernel.kernel_scan`` takes
DEFAULT_SUM_RULE_FRACTION = 0.96  # the power share ``svd_oracle`` counts to

# (binding name as in the CLI's DOMAINS, make_link keyword)
_LINK_KEYS = (("L_T_m", "L_T"), ("L_R_m", "L_R"), ("theta_T", "theta_T"),
              ("theta_R", "theta_R"), ("x0_m", "x0"), ("y0_m", "y0"),
              ("frequency_hz", "frequency"))


def link_params(bindings):
    """``make_link`` keywords from bindings named like the CLI's
    ``DOMAINS`` fields; absent bindings (a swept one) are left out."""
    return {kw: bindings[name] for name, kw in _LINK_KEYS if name in bindings}


def wavelength_from_frequency(frequency_hz):
    """Free-space wavelength in meters for a carrier frequency in Hz."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency_hz
