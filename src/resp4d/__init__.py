"""Respiratory-resolved 4D reconstruction from interleaved 2D navigator scans."""

from .errors import (
    DatasetIOError,
    ProcessingError,
    Resp4dError,
    TrackingError,
    ValidationError,
)
from .imgcore import (
    Dataset,
    Frame,
    InterleavedSequence,
    ReferenceSequence,
    load_dataset,
    write_dataset,
)
from .matcher import (
    CCOEFF_NORMED,
    CCORR_NORMED,
    MatchResult,
    SearchRegion,
    Template,
    cut_template,
    match_template,
    response_map,
)
from .phantom import PhantomSpec, generate_phantom, suggested_rois
from .reconstructor import (
    ReconstructionConfig,
    ReconstructionReport,
    Volume4D,
    reconstruct,
    save_reconstruction,
)
from .tracker import Roi, TrackTrace, locate_in_navigator, track_reference

__all__ = [
    "CCOEFF_NORMED",
    "CCORR_NORMED",
    "Dataset",
    "DatasetIOError",
    "Frame",
    "InterleavedSequence",
    "MatchResult",
    "PhantomSpec",
    "ProcessingError",
    "ReconstructionConfig",
    "ReconstructionReport",
    "ReferenceSequence",
    "Resp4dError",
    "Roi",
    "SearchRegion",
    "Template",
    "TrackTrace",
    "TrackingError",
    "ValidationError",
    "Volume4D",
    "cut_template",
    "generate_phantom",
    "load_dataset",
    "locate_in_navigator",
    "match_template",
    "reconstruct",
    "response_map",
    "save_reconstruction",
    "suggested_rois",
    "track_reference",
    "write_dataset",
]

__version__ = "0.1.0"
