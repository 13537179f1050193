(** Multiplicative random perturbation of profile weights (Section 5.1).

    Code layout algorithms are discontinuous in their input profile: tiny
    weight differences flip greedy decisions, so a single training run says
    little about an algorithm's typical behaviour.  The paper simulates a
    population of slightly different inputs by replacing each edge weight
    [w] with [w * exp (s * X)], [X ~ N(0, 1)].  Multiplicative noise keeps
    weights positive and is self-scaling in [s]. *)

val graph : Trg_util.Prng.t -> s:float -> Graph.t -> Graph.t
(** Fresh graph with every edge weight independently perturbed.  [s = 0]
    returns an exact copy. *)

val default_s : float
(** 0.1, the value used for the paper's Figure 5 experiments. *)

val tuple_db : Trg_util.Prng.t -> s:float -> Tuple_db.t -> Tuple_db.t
(** Same transformation for the set-associative database: the same keys
    with a fresh weight array, one factor drawn per entry in canonical
    order.  [s = 0] returns the database itself (its arrays are
    read-only). *)
