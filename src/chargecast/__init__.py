"""Quick-charge station load forecasting and storage scheduling toolkit."""

from .errors import ChargecastError, ConfigurationError, DataError, SolverError
from .forecast import (
    FleetConfig,
    ForecastResult,
    LoadProfile,
    ModelSet,
    SiteLoadBundle,
    charge_duration_hours,
    needs_charge,
    run_forecast,
    soc_after_trip,
    station_composite,
)
from .kde import KdeModel, fit_kde, silverman_bandwidth
from .scheduler import (
    DEFAULT_TARIFF,
    EssParams,
    SchedulePlan,
    TariffSchedule,
    multi_day_schedule,
    solve_schedule_slots,
    verify_plan,
)
from .survey import (
    CHAIN_TYPES,
    ChainFeatureDataset,
    ChainTable,
    ChainType,
    IngestDiagnostics,
    SiteClass,
    TripTable,
    build_chains,
    chain_type_proportions,
    extract_features,
    parse_records,
)

__version__ = "0.1.0"
