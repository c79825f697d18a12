(* OCaml >= 5 backend: job 0 runs on the calling domain and jobs 1..p-1
   on spawned Domains.  Spawning all p would leave the caller blocked in
   [Domain.join]: p + 1 domains on p cores, and every minor collection
   stops all of them.  The job results cross back to the calling domain
   by value; the only shared mutable state jobs touch is designed for
   it — the Mutex-guarded {!Metrics} sink, the Atomic-published schedule
   caches in {!Ppj_oblivious.Bitonic}/{!Ppj_oblivious.Oddeven}, and the
   mutex-guarded {!Ppj_obs.Registry} the sort pad metrics hit.
   Selected by the dune copy rule on %{ocaml_version}. *)

let available = true

let recommended () = Domain.recommended_domain_count ()

let run f x =
  match f x with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())

(* Every spawned domain is joined before any job's exception propagates,
   so no job is still running (and reporting to a shared sink) once the
   caller sees the failure; the lowest job's exception wins. *)
let parallel_map f xs =
  if Array.length xs <= 1 then Array.map f xs
  else
    let spawned =
      Array.init (Array.length xs - 1) (fun i -> Domain.spawn (fun () -> f xs.(i + 1)))
    in
    let first = run f xs.(0) in
    let rest = Array.map (run Domain.join) spawned in
    Array.map
      (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      (Array.append [| first |] rest)
