"""Stratified mix-adjusted median house price index over a geohash prefix tree."""

from .geocode import (
    ALPHABET,
    EARTH_RADIUS_M,
    GeoPoint,
    Geohash,
    decode_geohash,
    encode_geohash,
    haversine_distance,
)
from .geotree import EmptyTreeError, GeoTree, KeyLengthMismatch
from .index_engine import (
    ChainUndefinedError,
    IndexConfig,
    IndexResult,
    IndexSeries,
    RatioMatrix,
    VotingUndefinedError,
    build_ratio_matrix,
    build_tree,
    chain_index,
    compute_index,
    record_key,
    voting_stage,
)
from .ingestion import (
    CsvSchema,
    FiltrationReport,
    ListingRecord,
    ParseError,
    RawListing,
    SchemaError,
    filter_listings,
    parse_listings,
    write_listings_csv,
)
from .metrics import (
    SeriesMetrics,
    UndefinedMetricError,
    mean_spike_magnitude,
    series_metrics,
    std_dev,
    std_dev_differences,
)
from .synthgen import SynthConfig, generate, mix_shift_config

__version__ = "0.1.0"
