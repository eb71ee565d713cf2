"""Values and protocols of rank-one quantum games."""

from .games import (
    GamePurification,
    RankOneGame,
    SchurMatrix,
    check_maximal_value_one,
    from_states,
    game_gc,
    game_gcr,
    game_gr,
    game_power,
    game_tensor,
    is_schur,
    purify,
    schur_an_game,
    schur_game,
    tensor_purifications,
)
from .sdp import SdpProblem, SdpSolution, solve
from .strategies import (
    EntangledStrategy,
    OneWayStrategy,
    identity_strategy,
    named_strategy,
    seesaw_lower_bound,
    win_prob_entangled,
    win_prob_oneway,
)
from .values import (
    HaagerupWitness,
    ValueReport,
    entangled_value_bounds,
    haagerup_witness_check,
    maximal_value,
    mu_norm,
    qow_value,
    schur_equivalence_check,
    schur_s_search,
    schur_s_upper,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
