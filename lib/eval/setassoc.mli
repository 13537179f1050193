(** Reproduction of the Section 6 extension: placement for 2-way
    set-associative caches.

    Compares, on a 2-way LRU cache of the same total size: the default
    layout, PH, direct-mapped-targeted GBSC, and GBSC-SA (which replaces
    TRG_place with the pair database D(p, {r, s}) and charges conflicts per
    set).  The expected shape: associativity alone removes many conflicts,
    and GBSC-SA is the best of the placement algorithms on the associative
    cache. *)

type row = { label : string; miss_rate : float }

type section = { cache : Trg_cache.Config.t; rows : row list }

type result = {
  bench : string;
  two_way : section;  (** pair-database extension, as in the paper *)
  four_way : section;  (** tuple-database generalisation (arity 4) *)
  sa_perturbed : float * float;
      (** min/max GBSC-SA miss rate over perturbed pair databases *)
}

val run :
  ?force_fail:string list ->
  ?policy:Trg_cache.Policy.kind ->
  ?max_between:int ->
  ?runs:int ->
  Trg_synth.Shape.t ->
  result
(** Prepares the benchmark itself (it needs a 2-way configuration), so it
    takes a shape rather than a prepared runner.  [max_between] bounds the
    pair enumeration (default 32; see {!Trg_profile.Tuple_db}).  [policy]
    selects the replacement policy the associative caches are scored
    under (default LRU, the paper's Section 6 assumption). *)

val run_section :
  ?force_fail:string list ->
  ?policy:Trg_cache.Policy.kind ->
  max_between:int ->
  assoc:int ->
  Trg_synth.Shape.t ->
  section
(** One associativity's comparison table — an independent work unit for
    the evaluation pool. *)

val run_perturbation :
  ?force_fail:string list ->
  ?policy:Trg_cache.Policy.kind ->
  ?max_between:int ->
  lo:int ->
  hi:int ->
  Trg_synth.Shape.t ->
  float * float
(** Min/max GBSC-SA miss rate over perturbation runs [lo, hi).  Each run
    draws from an index-derived PRNG and min/max combine associatively,
    so slices are independent pool work units whose combination equals
    the sequential run. *)

val of_parts :
  Trg_synth.Shape.t ->
  two_way:section ->
  four_way:section ->
  sa_perturbed:float * float ->
  result
(** Reassembles a {!result} from independently computed parts. *)

val print : result -> unit
