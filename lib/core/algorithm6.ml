module Coprocessor = Ppj_scpu.Coprocessor
module Host = Ppj_scpu.Host
module Trace = Ppj_scpu.Trace
module Mlfsr = Ppj_crypto.Mlfsr

type stats = {
  s : int;
  n_star : int;
  segments : int;
  blemished : bool;
  salvaged : bool;
}

exception Blemished

let shared_seed seed = seed lxor 0x5bd1e995

(* What both entry points check and set up: returns (L, m). *)
let prepare inst ~eps =
  if eps < 0. || eps > 1. then invalid_arg "Algorithm6: eps must be in [0, 1]";
  Instance.ensure_cartesian inst;
  let m = Coprocessor.m (Instance.co inst) in
  if m < 1 then invalid_arg "Algorithm6: memory must hold at least one result";
  (Instance.l inst, m)

(* Positions [lo, hi) of the MLFSR order of [seed] in n*-segments: each
   segment keeps at most m results in T and flushes exactly m oTuples,
   its results padded with decoys.  Returns the segment count and
   whether some segment held more than m results (a blemish, whose
   surplus is dropped). *)
let segment_pass inst ~seed ~n_star ~lo ~hi =
  let co = Instance.co inst in
  let m = Coprocessor.m co in
  let decoy = Instance.decoy inst in
  let len = hi - lo in
  let segments = Params.segments ~l:len ~n_star in
  let (_ : Host.t) =
    Host.define_region (Coprocessor.host co) Trace.Output ~size:(segments * m)
  in
  let blemished = ref false in
  let stored = ref [] in
  let kept = ref 0 in
  let out_pos = ref 0 in
  let pos = ref 0 in
  Coprocessor.alloc co m;
  let flush () =
    List.iter
      (fun o ->
        Coprocessor.put co Trace.Output !out_pos o;
        incr out_pos)
      (List.rev !stored);
    for _ = !kept to m - 1 do
      Coprocessor.put co Trace.Output !out_pos decoy;
      incr out_pos
    done;
    stored := [];
    kept := 0
  in
  Seq.iter
    (fun idx ->
      if !pos >= lo && !pos < hi then begin
        let it = Instance.get_ituple inst idx in
        if Instance.satisfy inst it then
          if !kept < m then begin
            stored := Instance.join_ituple inst it :: !stored;
            incr kept
          end
          else blemished := true;
        let seen = !pos - lo + 1 in
        if seen mod n_star = 0 || seen = len then flush ()
      end;
      incr pos)
    (Mlfsr.random_order ~n:(Instance.l inst) ~seed);
  Coprocessor.free co m;
  (segments, !blemished)

let run inst ~eps ?delta ?(salvage = true) () =
  let l, m = prepare inst ~eps in
  let co = Instance.co inst in
  let host = Coprocessor.host co in
  (* Screening pass: learn S; retain results opportunistically so that the
     M >= S case (footnote 1) finishes in this single pass. *)
  Coprocessor.alloc co m;
  let s = ref 0 in
  let retained = ref [] in
  for idx = 0 to l - 1 do
    let it = Instance.get_ituple inst idx in
    if Instance.satisfy inst it then begin
      incr s;
      if !s <= m then retained := Instance.join_ituple inst it :: !retained
    end
  done;
  let s = !s in
  let finish stats = (Report.collect inst ~stats:(("S", float_of_int s) :: ("n_star", float_of_int stats.n_star) :: ("segments", float_of_int stats.segments) :: []) (), stats) in
  if s = 0 then begin
    Coprocessor.free co m;
    finish { s; n_star = l; segments = 0; blemished = false; salvaged = false }
  end
  else if m >= s then begin
    (* Everything fit during screening: output the S results directly. *)
    let (_ : Host.t) = Host.define_region host Trace.Output ~size:s in
    List.iteri (fun i o -> Coprocessor.put co Trace.Output i o) (List.rev !retained);
    Coprocessor.free co m;
    Host.persist host Trace.Output ~count:s;
    finish { s; n_star = l; segments = 1; blemished = false; salvaged = false }
  end
  else begin
    Coprocessor.free co m;
    let n_star = Hypergeom.n_star ~l ~s ~m ~eps in
    let segments, blemished =
      segment_pass inst ~seed:(Coprocessor.fresh_seed co) ~n_star ~lo:0 ~hi:l
    in
    if blemished && salvage then begin
      (* "Salvage action": fall back to Algorithm 5 to re-output every
         result.  Correct, but the deviation itself is observable — the
         privacy guarantee degrades exactly as the 1 − ε analysis says. *)
      let (_ : int * int) = Algorithm5.execute inst in
      finish { s; n_star; segments; blemished; salvaged = true }
    end
    else begin
      Algorithm4.filter inst ?delta ~len:(segments * m) ~mu:s ();
      finish { s; n_star; segments; blemished; salvaged = false }
    end
  end

let run_slice inst ~eps ~k ~p ~s ~seed =
  let lo, hi = Params.slice ~n:(Instance.l inst) ~k ~p in
  let l, m = prepare inst ~eps in
  if s > 0 && hi > lo then begin
    let n_star = if m >= s then l else Hypergeom.n_star ~l ~s ~m ~eps in
    let segments, blemished = segment_pass inst ~seed ~n_star ~lo ~hi in
    (* A segment dropped results: refuse rather than deliver short.  The
       sequential salvage re-outputs the whole result through Algorithm
       5, which a slice of a position range cannot do. *)
    if blemished then raise Blemished;
    Algorithm4.filter inst ~len:(segments * m) ~mu:(min (segments * m) s) ()
  end
