(** CSV import/export for relations.

    Format: first line is the header of field names; integers are decimal,
    strings are taken verbatim (no embedded commas or quoting — this is a
    deliberately minimal loader for feeding real tables to the CLI), and
    set-valued fields are semicolon-separated integers. *)

val parse : Schema.t -> name:string -> string -> (Relation.t, string) result
(** Parse CSV text against a known schema. *)

val load : Schema.t -> name:string -> path:string -> (Relation.t, string) result

val print : Relation.t -> string
(** Render back to CSV (inverse of {!parse}). *)

val save : Relation.t -> path:string -> unit

val infer_schema : string -> (Schema.t, string) result
(** Guess a schema from CSV text: a column whose every value parses as an
    integer is [TInt]; every value a ';'-separated integer list, [TSet];
    otherwise [TStr].  Widths/capacities are sized to the data, floored at
    16 bytes per string and 8 elements per set. *)
