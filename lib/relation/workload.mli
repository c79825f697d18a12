(** Synthetic workload generators.

    The paper's evaluation is parameterised purely by sizes — [L = |D|],
    output size [S], per-tuple multiplicity [N], memory [M] — so the
    generators below construct relations hitting exact values of those
    parameters, including the skewed worst case of §5.1.1 (one outer tuple
    matching everything). *)

module Rng = Ppj_crypto.Rng

val keyed_schema : unit -> Schema.t
(** [(id : int, key : int, info : str[12])]. *)

val uniform : Rng.t -> name:string -> n:int -> key_domain:int -> Relation.t
(** [n] tuples with keys uniform in [0, key_domain). *)

val zipf : Rng.t -> name:string -> n:int -> key_domain:int -> theta:float -> Relation.t
(** Zipf-skewed keys: P(key = k) proportional to 1/(k+1)^theta. *)

val equijoin_pair :
  Rng.t ->
  na:int ->
  nb:int ->
  matches:int ->
  max_multiplicity:int ->
  Relation.t * Relation.t
(** Relations [A] (all keys distinct) and [B] such that the equijoin on
    [key] has exactly [matches] results and no tuple of [A] matches more
    than [max_multiplicity] tuples of [B].
    @raise Invalid_argument if the demanded [matches] cannot be realised
    within [na], [nb] and [max_multiplicity]. *)

val skewed_worst_case : Rng.t -> na:int -> nb:int -> Relation.t * Relation.t
(** §5.1.1's worst case: one tuple of [A] matches every tuple of [B] and
    no other tuple of [A] matches anything. *)

val set_valued :
  Rng.t -> name:string -> n:int -> universe:int -> set_size:int -> Relation.t
(** [(id : int, tags : set)] relations for Jaccard-similarity joins. *)
