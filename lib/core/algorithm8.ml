(* Algorithm 8: O(n log n)-flavoured oblivious binary equi-join, after
   Krastnikov–Kerschbaum–Stebila (arXiv 2003.09481), built from the
   substrate this repo already has: oblivious sorting networks over host
   regions, a multiplicity prefix pass, and sort-based oblivious
   expansion/alignment.

   Pipeline (every step a fixed transfer pattern in |A|, |B| and the
   public output size S):

     1. tagged union of A and B in [Scratch], obliviously sorted by
        (join key, source) — A tuples precede their matching B tuples;
     2. forward + backward sequential passes annotate every tuple with
        (g, r, alpha): its key group's first output index g, its rank r
        within its own side's run, and the opposite side's multiplicity
        alpha.  The passes also learn S = sum over keys of
        alpha_A * alpha_B, which Definition 3 treats as public (the same
        status S has in Algorithms 4-6 and the sharded budgets);
     3. per side, oblivious expansion: each annotated tuple seeds the
        first slot of its contiguous output run (dest = g + r * alpha;
        unmatched tuples become indistinguishable fillers), an oblivious
        sort interleaves the seeds with S blank output slots, and one
        sequential fill-forward pass copies each seed's body into the
        blanks that follow it.  A second oblivious sort by the pair
        coordinate (g, i, j) extracts the S expanded tuples to the front
        of the region, aligned so that position q of the expanded A
        region and position q of the expanded B region form output pair
        q;
     4. one zip pass emits the S real oTuples to [Output] — no decoys
        are needed because S is public and the expansion is exact.

   With Batcher networks the sorts cost O(n log^2 n) comparators, so the
   end-to-end transfer count is O((|A| + |B| + S) log^2 (|A| + |B| + S))
   — the KKS bound up to the usual network log factor — versus
   Algorithm 4's 2L = 2|A||B|.  Cost.alg8 is the exact closed form; the
   bench's `scaling` experiment regression-fits it and reports the
   measured crossover against Algorithm 4.

   Unlike Algorithm 7, duplicates on BOTH sides are supported: the
   expansion emits the full per-key cross product. *)

module Coprocessor = Ppj_scpu.Coprocessor
module Host = Ppj_scpu.Host
module Trace = Ppj_scpu.Trace
module Value = Ppj_relation.Value
module Tuple = Ppj_relation.Tuple
module Sort = Ppj_oblivious.Sort

type stats = { s : int }

let src_a = '\000'
let src_b = '\001'

(* Fixed-width 8-byte big-endian integers inside record plaintexts, so
   every record of a phase has one width and ciphertexts are
   indistinguishable. *)
let int_width = 8

let encode_int v =
  String.init int_width (fun k -> Char.chr ((v lsr (8 * (int_width - 1 - k))) land 0xff))

let decode_int s pos =
  let v = ref 0 in
  for k = 0 to int_width - 1 do
    v := (!v lsl 8) lor Char.code s.[pos + k]
  done;
  !v

(* Staging-record kinds for the expansion regions. *)
let k_seed = '\000'
let k_slot = '\001'
let k_fill = '\002'

let run_slice inst ~attr_a ~attr_b ~k ~p =
  Params.check_slice ~k ~p;
  let co = Instance.co inst in
  let host = Coprocessor.host co in
  let na = Instance.a_len inst and nb = Instance.b_len inst in
  let wa = Instance.relation_width inst 0 and wb = Instance.relation_width inst 1 in
  let w = max wa wb in
  let total = na + nb in
  let pad s = s ^ String.make (w - String.length s) '\000' in
  let src slot = slot.[0] in
  let body_at slot pos =
    if Char.equal (src slot) src_a then String.sub slot pos wa else String.sub slot pos wb
  in
  let key_of slot pos =
    if Char.equal (src slot) src_a then
      Tuple.get (Instance.decode_a inst (body_at slot pos)) attr_a
    else Tuple.get (Instance.decode_b inst (body_at slot pos)) attr_b
  in
  (* --- 1. tagged union, obliviously sorted by (key, source) --- *)
  let (_ : Host.t) =
    Host.define_region host Trace.Scratch ~size:(Sort.padded_size total)
  in
  for i = 0 to na - 1 do
    let e = Coprocessor.get co (Instance.region_a inst) i in
    Coprocessor.put co Trace.Scratch i (String.make 1 src_a ^ pad e)
  done;
  for i = 0 to nb - 1 do
    let e = Coprocessor.get co (Instance.region_b inst) i in
    Coprocessor.put co Trace.Scratch (na + i) (String.make 1 src_b ^ pad e)
  done;
  Sort.sort_padded co Trace.Scratch ~n:total ~width:(1 + w) ~compare:(fun x y ->
      let c = Value.compare (key_of x 1) (key_of y 1) in
      if c <> 0 then c else Char.compare (src x) (src y));
  (* --- 2. multiplicity prefix passes ---
     Annotated slot: tag, g, r, alpha_opp, body.  The forward pass fills
     g and r for everyone and alpha_opp for B slots (their A run is
     complete by sort order); the backward pass fills alpha_opp for A
     slots.  Group bookkeeping lives in coprocessor registers only —
     both passes read and re-write every slot exactly once. *)
  let ann ~tag ~g ~r ~alpha body =
    String.make 1 tag ^ encode_int g ^ encode_int r ^ encode_int alpha ^ body
  in
  let body_off = 1 + (3 * int_width) in
  Coprocessor.alloc co 1;
  let cur_key = ref None in
  let a_cnt = ref 0 and b_cnt = ref 0 and out_base = ref 0 in
  for t = 0 to total - 1 do
    let slot = Coprocessor.get co Trace.Scratch t in
    Coprocessor.tick co 4;
    let key = key_of slot 1 in
    (match !cur_key with
    | Some k when Value.equal k key -> ()
    | _ ->
        out_base := !out_base + (!a_cnt * !b_cnt);
        a_cnt := 0;
        b_cnt := 0;
        cur_key := Some key);
    let body = String.sub slot 1 w in
    let out =
      if Char.equal (src slot) src_a then begin
        let r = !a_cnt in
        incr a_cnt;
        ann ~tag:src_a ~g:!out_base ~r ~alpha:0 body
      end
      else begin
        let r = !b_cnt in
        incr b_cnt;
        ann ~tag:src_b ~g:!out_base ~r ~alpha:!a_cnt body
      end
    in
    Coprocessor.put co Trace.Scratch t out
  done;
  let s = !out_base + (!a_cnt * !b_cnt) in
  cur_key := None;
  b_cnt := 0;
  for t = total - 1 downto 0 do
    let slot = Coprocessor.get co Trace.Scratch t in
    Coprocessor.tick co 4;
    let key = key_of slot body_off in
    (match !cur_key with
    | Some k when Value.equal k key -> ()
    | _ ->
        b_cnt := 0;
        cur_key := Some key);
    let out =
      if Char.equal (src slot) src_b then begin
        incr b_cnt;
        slot
      end
      else
        ann ~tag:src_a
          ~g:(decode_int slot 1)
          ~r:(decode_int slot (1 + int_width))
          ~alpha:!b_cnt
          (String.sub slot body_off w)
    in
    Coprocessor.put co Trace.Scratch t out
  done;
  Coprocessor.free co 1;
  (* Emit range of this coprocessor: output ranks [lo, hi) (§5.3.5-style
     result-rank partitioning; k = 0, p = 1 is the whole join). *)
  let lo, hi = Params.slice ~n:s ~k ~p in
  if s > 0 then begin
    (* --- 3. per-side oblivious expansion/alignment --- *)
    let nl = total + s in
    let px = Sort.padded_size nl in
    let rec_width = 1 + (3 * int_width) + w in
    let seed ~dest ~r ~alpha body =
      String.make 1 k_seed ^ encode_int dest ^ encode_int r ^ encode_int alpha ^ body
    in
    let record kind a b c body =
      String.make 1 kind ^ encode_int a ^ encode_int b ^ encode_int c ^ body
    in
    let zero_body = String.make w '\000' in
    let filler = record k_fill 0 0 0 zero_body in
    (* Sort 1: seeds and blank output slots by destination — a seed at
       destination q lands immediately before blank slot q; fillers (and
       unmatched tuples) sort behind every real destination. *)
    let dist_rank e =
      match e.[0] with
      | c when Char.equal c k_seed -> (decode_int e 1, 0)
      | c when Char.equal c k_slot -> (decode_int e 1, 1)
      | _ -> (max_int, 2)
    in
    let dist_compare x y = compare (dist_rank x) (dist_rank y) in
    (* Sort 2: filled output slots to the front, ordered by the pair
       coordinate (g, i, j); seeds and fillers behind, mutually equal. *)
    let align_rank e =
      if Char.equal e.[0] k_slot then
        (0, decode_int e 1, decode_int e (1 + int_width), decode_int e (1 + (2 * int_width)))
      else (1, 0, 0, 0)
    in
    let align_compare x y = compare (align_rank x) (align_rank y) in
    let expand ~side region =
      for t = 0 to total - 1 do
        let slot = Coprocessor.get co Trace.Scratch t in
        Coprocessor.tick co 2;
        let g = decode_int slot 1 in
        let r = decode_int slot (1 + int_width) in
        let alpha = decode_int slot (1 + (2 * int_width)) in
        let out =
          if Char.equal (src slot) side && alpha > 0 then
            seed ~dest:(g + (r * alpha)) ~r ~alpha (String.sub slot body_off w)
          else filler
        in
        Coprocessor.put co region t out
      done;
      for q = 0 to s - 1 do
        Coprocessor.put co region (total + q) (record k_slot q 0 0 zero_body)
      done;
      Sort.sort_padded co region ~n:nl ~width:rec_width ~compare:dist_compare;
      (* Fill-forward: one held seed, every slot read and re-written.  A
         blank slot at output rank q computes its pair coordinate from
         the held seed: the seed's own-side rank r, the offset q - dest
         on the opposite side, and the group base g = dest - r * alpha. *)
      Coprocessor.alloc co 1;
      let held = ref (0, 0, 0, zero_body) in
      for t = 0 to nl - 1 do
        let e = Coprocessor.get co region t in
        Coprocessor.tick co 2;
        let out =
          if Char.equal e.[0] k_seed then begin
            held :=
              ( decode_int e 1,
                decode_int e (1 + int_width),
                decode_int e (1 + (2 * int_width)),
                String.sub e body_off w );
            e
          end
          else if Char.equal e.[0] k_slot then begin
            let q = decode_int e 1 in
            let dest, r, alpha, body = !held in
            let g = dest - (r * alpha) in
            let opp = q - dest in
            let i, j = if Char.equal side src_a then (r, opp) else (opp, r) in
            record k_slot g i j body
          end
          else e
        in
        Coprocessor.put co region t out
      done;
      Coprocessor.free co 1;
      Sort.sort_padded co region ~n:nl ~width:rec_width ~compare:align_compare
    in
    let (_ : Host.t) = Host.define_region host Trace.Joined ~size:px in
    let (_ : Host.t) = Host.define_region host Trace.Buffer ~size:px in
    expand ~side:src_a Trace.Joined;
    expand ~side:src_b Trace.Buffer;
    (* --- 4. zip the aligned expansions into oTuples --- *)
    if hi > lo then begin
      let count = hi - lo in
      let (_ : Host.t) = Host.define_region host Trace.Output ~size:count in
      Coprocessor.alloc co 1;
      for q = lo to hi - 1 do
        let ea = Coprocessor.get co Trace.Joined q in
        let eb = Coprocessor.get co Trace.Buffer q in
        Coprocessor.tick co 4;
        let out =
          Instance.join2 inst
            (String.sub ea body_off wa)
            (String.sub eb body_off wb)
        in
        Coprocessor.put co Trace.Output (q - lo) out
      done;
      Coprocessor.free co 1;
      Host.persist host Trace.Output ~count
    end
  end;
  { s }

let run inst ~attr_a ~attr_b =
  let st = run_slice inst ~attr_a ~attr_b ~k:0 ~p:1 in
  (Report.collect inst ~stats:[ ("S", float_of_int st.s) ] (), st)
