module Coprocessor = Ppj_scpu.Coprocessor
module Host = Ppj_scpu.Host
module Trace = Ppj_scpu.Trace
module Decoy = Ppj_relation.Decoy
module Filter = Ppj_oblivious.Filter
module Mlfsr = Ppj_crypto.Mlfsr

let check ~k ~p =
  if p < 1 then invalid_arg "Sharded: p must be positive";
  if k < 0 || k >= p then
    invalid_arg (Printf.sprintf "Sharded: shard index %d out of range for p=%d" k p)

let range_of ~l ~p k =
  let lo = k * l / p in
  let hi = (k + 1) * l / p in
  (lo, hi)

let shared_seed seed = seed lxor 0x5bd1e995

exception Blemished

(* The per-shard filter budget.  A shard's local match count s_k is
   data-dependent — two same-shape databases place their S matches in
   different slices — so filtering with mu = s_k would leak the
   distribution of matches across shards through the filter's trace.
   Every shard instead filters "assuming at most min(slice, S)" reals:
   S is public under Definition 3 (and pinned equal across the pairs
   Definition 1 quantifies over), so the budget — hence the whole slice
   trace — is a function of shape alone.  The surplus slots surface as
   decoys the recipient drops. *)
let public_mu ~slice ~s = min slice s

let alg4 ?(leaky = false) inst ~k ~p ~s =
  check ~k ~p;
  let co = Instance.co inst in
  let host = Coprocessor.host co in
  Instance.ensure_cartesian inst;
  let l = Instance.l inst in
  let lo, hi = range_of ~l ~p k in
  let width = Instance.out_width inst in
  (* When p > l some shards get an empty range: they define no Output
     region and run no filter, so their region size and persist
     behaviour match the src_len the non-empty path would use. *)
  if hi > lo then begin
    let len = hi - lo in
    let (_ : Host.t) = Host.define_region host Trace.Output ~size:len in
    let local = ref 0 in
    for idx = lo to hi - 1 do
      let it = Instance.get_ituple inst idx in
      if Instance.satisfy inst it then begin
        Coprocessor.put co Trace.Output (idx - lo) (Instance.join_ituple inst it);
        incr local
      end
      else Coprocessor.put co Trace.Output (idx - lo) (Instance.decoy inst)
    done;
    let mu = if leaky then !local else public_mu ~slice:len ~s in
    if mu > 0 then begin
      let buffer =
        Filter.run co ~src:Trace.Output ~src_len:len ~mu
          ~is_real:(fun o -> not (Decoy.is_decoy o))
          ~width ()
      in
      Host.persist host buffer ~count:mu
    end
  end

let alg5 inst ~k ~p ~s =
  check ~k ~p;
  let co = Instance.co inst in
  let host = Coprocessor.host co in
  Instance.ensure_cartesian inst;
  let l = Instance.l inst in
  let m = Coprocessor.m co in
  if m < 1 then invalid_arg "Sharded.alg5: memory must hold at least one result";
  (* Result-rank range partitioning (§5.3.5): shard k outputs the ranks
     in [kS/p, (k+1)S/p), scanning the same fixed order.  The scan
     pattern is a function of (l, m, S, k, p) only — no padding needed. *)
  let target_lo, target_hi = (k * s / p, (k + 1) * s / p) in
  let count = target_hi - target_lo in
  let (_ : Host.t) = Host.define_region host Trace.Output ~size:(max 1 count) in
  let flushed = ref 0 in
  Coprocessor.alloc co m;
  while !flushed < count do
    let window_lo = target_lo + !flushed in
    let window_hi = min target_hi (window_lo + m) in
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
    List.iteri
      (fun i o -> Coprocessor.put co Trace.Output (!flushed + i) o)
      (List.rev !stored);
    flushed := !flushed + (window_hi - window_lo)
  done;
  Coprocessor.free co m;
  Host.persist host Trace.Output ~count

let alg6 ?(leaky = false) inst ~k ~p ~s ~shared_seed ~eps =
  check ~k ~p;
  if eps < 0. || eps > 1. then invalid_arg "Sharded.alg6: eps must be in [0, 1]";
  let co = Instance.co inst in
  let host = Coprocessor.host co in
  Instance.ensure_cartesian inst;
  let l = Instance.l inst in
  let m = Coprocessor.m co in
  if m < 1 then invalid_arg "Sharded.alg6: memory must hold at least one result";
  if s > 0 then begin
    let n_star = if m >= s then l else Hypergeom.n_star ~l ~s ~m ~eps in
    let lo, hi = range_of ~l ~p k in
    if hi > lo then begin
      let my_len = hi - lo in
      let segs = Params.segments ~l:my_len ~n_star in
      let (_ : Host.t) = Host.define_region host Trace.Output ~size:(segs * m) in
      let local_s = ref 0 in
      let blemished = ref false in
      let stored = ref [] in
      let kk = ref 0 in
      let out_pos = ref 0 in
      let seen = ref 0 in
      Coprocessor.alloc co m;
      let flush () =
        List.iter
          (fun o ->
            Coprocessor.put co Trace.Output !out_pos o;
            incr out_pos)
          (List.rev !stored);
        for _ = !kk to m - 1 do
          Coprocessor.put co Trace.Output !out_pos (Instance.decoy inst);
          incr out_pos
        done;
        stored := [];
        kk := 0
      in
      let pos = ref (-1) in
      Seq.iter
        (fun idx ->
          incr pos;
          (* Only this coprocessor's range of the shared sequence. *)
          if !pos >= lo && !pos < hi then begin
            incr seen;
            let it = Instance.get_ituple inst idx in
            if Instance.satisfy inst it then
              if !kk < m then begin
                stored := Instance.join_ituple inst it :: !stored;
                incr kk;
                incr local_s
              end
              else blemished := true;
            if !seen mod n_star = 0 || !seen = my_len then flush ()
          end)
        (Mlfsr.random_order ~n:l ~seed:shared_seed);
      Coprocessor.free co m;
      (* A segment dropped results: refuse rather than deliver short.
         Algorithm 6's salvage re-outputs the whole result through
         Algorithm 5, which a slice of a position range cannot do. *)
      if !blemished then raise Blemished;
      let mu = if leaky then !local_s else public_mu ~slice:(segs * m) ~s in
      if mu > 0 then begin
        let buffer =
          Filter.run co ~src:Trace.Output ~src_len:(segs * m) ~mu
            ~is_real:(fun o -> not (Decoy.is_decoy o))
            ~width:(Instance.out_width inst) ()
        in
        Host.persist host buffer ~count:mu
      end
    end
  end

let alg8 inst ~k ~p ~attr_a ~attr_b =
  check ~k ~p;
  let (_ : Algorithm8.stats) = Algorithm8.run_slice inst ~attr_a ~attr_b ~k ~p in
  ()
