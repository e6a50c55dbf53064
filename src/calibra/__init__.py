"""Calibration evaluation harness for prompted QA pipelines."""

from .backend import (
    Completion,
    CompletionRequest,
    HttpBackend,
    MockBackend,
    ResponseCache,
    complete,
    mock_from_script,
)
from .concern import (
    ConcernLexicon,
    augment_with_knowledge,
    concern_rate,
    detect_concern,
    improvement,
    select_hard,
)
from .confidence import (
    ConfidenceResult,
    p_true_confidence,
    parse_verbalized,
    token_prob_confidence,
    verbalized_confidence,
)
from .harness import (
    RunConfig,
    RunReport,
    aggregate,
    emit_report,
    evaluate,
    load_dataset,
    read_records,
    run_eval,
    sweep,
    write_dataset,
)
from .metrics import (
    Bucket,
    CalibrationSummary,
    DistributionCurve,
    bucketize,
    distribution_curve,
    ece,
    macro_ce,
    summarize,
    wins_table,
)
from .qa import (
    EvalRecord,
    ExtractedAnswer,
    QAItem,
    accuracy,
    exact_match,
    extract_boolean,
    normalize_answer,
)
from .strategies import (
    STRATEGY_IDS,
    StrategyConfig,
    StrategyPlan,
    Step,
    Transcript,
    execute,
    majority_vote,
    plan,
    render_step,
)

__version__ = "0.1.0"
