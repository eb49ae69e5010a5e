"""Motion substrate: pedestrians, step counting, heading, RLM extraction."""

from .heading import (
    course_from_readings,
    estimate_placement_offset,
    mean_compass_heading,
)
from .kalman_heading import KalmanHeadingFilter, fused_course_from_segment
from .kernel import SegmentAnalysis, analyze_segments
from .pedestrian import (
    BodyProfile,
    Pedestrian,
    random_walk_path,
    step_length_from_body,
)
from .rlm import MotionMeasurement, RlmObservation, extract_measurement
from .segmentation import StreamSegment, segment_at_turns
from .stride import StepLengthEstimator
from .step_counting import (
    count_steps_csc,
    count_steps_dsc,
    detect_step_times,
    find_peaks,
    is_walking,
)
from .trace import TraceHop, WalkTrace

__all__ = [
    "course_from_readings",
    "estimate_placement_offset",
    "mean_compass_heading",
    "KalmanHeadingFilter",
    "fused_course_from_segment",
    "SegmentAnalysis",
    "analyze_segments",
    "BodyProfile",
    "Pedestrian",
    "random_walk_path",
    "step_length_from_body",
    "MotionMeasurement",
    "RlmObservation",
    "extract_measurement",
    "count_steps_csc",
    "StepLengthEstimator",
    "StreamSegment",
    "segment_at_turns",
    "count_steps_dsc",
    "detect_step_times",
    "find_peaks",
    "is_walking",
    "TraceHop",
    "WalkTrace",
]
