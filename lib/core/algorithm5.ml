module Coprocessor = Ppj_scpu.Coprocessor
module Host = Ppj_scpu.Host
module Trace = Ppj_scpu.Trace

(* Result ranks [lo, hi) in scans of the cartesian product, each
   retaining at most m results in T and writing them only at its end.
   [hi = None]: the first scan learns S, while it serves ranks
   [lo, lo + m).  Persists the results; returns (hi, scan count). *)
let scan inst ~lo ~hi =
  let co = Instance.co inst in
  let host = Coprocessor.host co in
  Instance.ensure_cartesian inst;
  let l = Instance.l inst in
  let m = Coprocessor.m co in
  if m < 1 then invalid_arg "Algorithm5: memory must hold at least one result";
  let define hi = ignore (Host.define_region host Trace.Output ~size:(max 1 (hi - lo)) : Host.t) in
  Option.iter define hi;
  (* max_int until the first scan has counted S *)
  let hi = ref (Option.value hi ~default:max_int) in
  let flushed = ref 0 in
  let scans = ref 0 in
  Coprocessor.alloc co m;
  while lo + !flushed < !hi do
    let window_lo = lo + !flushed in
    let window_hi = min !hi (window_lo + m) in
    let rank = ref 0 in
    let stored = ref [] in
    for idx = 0 to l - 1 do
      let it = Instance.get_ituple inst idx in
      if Instance.satisfy inst it then begin
        if !rank >= window_lo && !rank < window_hi then
          stored := Instance.join_ituple inst it :: !stored;
        incr rank
      end
    done;
    incr scans;
    if !hi = max_int then begin
      hi := !rank;
      define !hi
    end;
    List.iter
      (fun o ->
        Coprocessor.put co Trace.Output !flushed o;
        incr flushed)
      (List.rev !stored)
  done;
  Coprocessor.free co m;
  Host.persist host Trace.Output ~count:!flushed;
  (!hi, !scans)

let execute inst = scan inst ~lo:0 ~hi:None

let run_slice inst ~k ~p ~s =
  let lo, hi = Params.slice ~n:s ~k ~p in
  let (_ : int * int) = scan inst ~lo ~hi:(Some hi) in
  ()

let run inst =
  let s, scans = execute inst in
  Report.collect inst ~stats:[ ("S", float_of_int s); ("scans", float_of_int scans) ] ()
