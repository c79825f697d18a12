(* OCaml 4.x fallback: no Domains, shard jobs run sequentially on the
   calling thread.  Functionally identical to the parallel backend — the
   coordinator's merge and privacy story never depend on scheduling —
   just without wall-clock speedup.  Selected by the dune copy rule. *)

let available = false

(* Jobs run one at a time here, whatever the machine has. *)
let cores () = 1

let parallel_map f xs = Array.map f xs
