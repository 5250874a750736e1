"""Gridworld path planning: environments, search-trace text, evaluation."""

from .cogmap import (
    ALL_VARIANTS,
    CotVariant,
    Direction,
    PlanParseError,
    Verbosity,
    build_search_trace,
    parse_plan,
    render_parts,
    render_target,
    serialize_plan,
)
from .generate import (
    GenParams,
    GenerationError,
    TEST_PARAMS,
    TRAIN_PARAMS,
    generate_environment,
    generate_indexed,
)
from .grid import (
    ACTIONS,
    Action,
    GridSpec,
    MoveKind,
    Position,
    TransitionResult,
    count_simple_paths,
    optimal_path,
    path_states,
    transition,
    valid_actions,
)
from .harness import (
    Agent,
    AgentTransportError,
    BatchReport,
    DfsAgent,
    EpisodeAborted,
    EpisodeResult,
    OracleAgent,
    Outcome,
    PlansAgent,
    RandomValidAgent,
    evaluate_batch,
    load_plans,
    plans_agent_factory,
    run_episode,
    scripted_agent_factory,
)
from .prompts import (
    PromptText,
    RULES_TEXT,
    parse_action,
    parse_observation,
    render_instruction,
    render_observation,
)
from .stats import StatsReport, complexity, export_heatmap

__version__ = "0.1.0"
