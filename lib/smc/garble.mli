(** Yao garbled circuits with point-and-permute and free XOR.

    This is the machinery behind the generic SMC baseline the paper
    compares against ([32, 34]): the garbler (P_A) encrypts each AND
    gate's truth table under wire labels; the evaluator (P_B) obtains its
    own input labels by oblivious transfer and decrypts exactly one row
    per gate, learning nothing but the output.  XOR gates cost nothing
    (labels share a global offset), so communication is
    4 × 128 bits × (number of AND gates) per evaluation — the
    [G_e(w)]-gates term of §4.6.5. *)

module Block = Ppj_crypto.Block
module Rng = Ppj_crypto.Rng

type garbled

type label = Block.t

val garble : Rng.t -> Circuit.t -> garbled
(** Garble a fresh instance (fresh labels every call — labels must never
    be reused across evaluations). *)

val input_labels_a : garbled -> bool array -> label array
(** Garbler-side: the labels encoding P_A's own input bits. *)

val input_label_pair_b : garbled -> int -> label * label
(** The (false, true) label pair for P_B's i-th input wire — the OT
    sender's two messages. *)

val evaluate : garbled -> a_labels:label array -> b_labels:label array -> bool
(** Evaluator-side: decrypt through the circuit and decode the output bit
    (the garbler published the output wire's permute bit). *)

val table_bits : garbled -> int
(** Size of the garbled tables in bits. *)
