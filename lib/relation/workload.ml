module Rng = Ppj_crypto.Rng

let keyed_schema () =
  Schema.make
    [ { Schema.name = "id"; ty = Schema.TInt };
      { Schema.name = "key"; ty = Schema.TInt };
      { Schema.name = "info"; ty = Schema.TStr 12 }
    ]

let payload rng id = Printf.sprintf "p%08d-%02x" id (Rng.int rng 256)

let tuple schema rng ~id ~key =
  Tuple.make schema [ Value.Int id; Value.Int key; Value.Str (payload rng id) ]

let uniform rng ~name ~n ~key_domain =
  let schema = keyed_schema () in
  Relation.of_array ~name schema
    (Array.init n (fun id -> tuple schema rng ~id ~key:(Rng.int rng key_domain)))

let zipf rng ~name ~n ~key_domain ~theta =
  let schema = keyed_schema () in
  let weights = Array.init key_domain (fun k -> 1. /. Float.pow (float_of_int (k + 1)) theta) in
  let cumulative = Array.make key_domain 0. in
  let total = ref 0. in
  Array.iteri
    (fun i w ->
      total := !total +. w;
      cumulative.(i) <- !total)
    weights;
  let sample () =
    let x = Rng.float rng !total in
    (* First index whose cumulative weight reaches x. *)
    let lo = ref 0 and hi = ref (key_domain - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Relation.of_array ~name schema
    (Array.init n (fun id -> tuple schema rng ~id ~key:(sample ())))

let equijoin_pair rng ~na ~nb ~matches ~max_multiplicity =
  if matches > na * max_multiplicity then
    invalid_arg "Workload.equijoin_pair: matches exceed na * max_multiplicity";
  if matches > nb then invalid_arg "Workload.equijoin_pair: matches exceed nb";
  let schema = keyed_schema () in
  (* A keys are 0 .. na-1, all distinct; non-matching B keys live in a
     disjoint negative range. *)
  let counts = Array.make na 0 in
  let remaining = ref matches in
  let k = ref 0 in
  while !remaining > 0 do
    if counts.(!k) < max_multiplicity then begin
      counts.(!k) <- counts.(!k) + 1;
      decr remaining
    end;
    k := (!k + 1) mod na
  done;
  let a = Array.init na (fun id -> tuple schema rng ~id ~key:id) in
  let b_matching =
    Array.to_list counts
    |> List.mapi (fun key c -> List.init c (fun _ -> key))
    |> List.concat
  in
  let b_keys = Array.make nb 0 in
  List.iteri (fun i key -> b_keys.(i) <- key) b_matching;
  for i = List.length b_matching to nb - 1 do
    b_keys.(i) <- -1 - Rng.int rng (4 * nb)
  done;
  Rng.shuffle rng b_keys;
  let b = Array.mapi (fun id key -> tuple schema rng ~id ~key) b_keys in
  Rng.shuffle rng a;
  ( Relation.of_array ~name:"A" schema a,
    Relation.of_array ~name:"B" schema b )

let skewed_worst_case rng ~na ~nb =
  let schema = keyed_schema () in
  let hot = 0 in
  let a =
    Array.init na (fun id -> tuple schema rng ~id ~key:(if id = 0 then hot else -1 - id))
  in
  let b = Array.init nb (fun id -> tuple schema rng ~id ~key:hot) in
  Rng.shuffle rng a;
  ( Relation.of_array ~name:"A" schema a,
    Relation.of_array ~name:"B" schema b )

let set_valued rng ~name ~n ~universe ~set_size =
  let schema =
    Schema.make
      [ { Schema.name = "id"; ty = Schema.TInt };
        { Schema.name = "tags"; ty = Schema.TSet set_size }
      ]
  in
  let random_set () =
    let rec draw acc k =
      if k = 0 then acc
      else
        let x = Rng.int rng universe in
        if List.mem x acc then draw acc k else draw (x :: acc) (k - 1)
    in
    draw [] (min set_size universe)
  in
  Relation.of_array ~name schema
    (Array.init n (fun id -> Tuple.make schema [ Value.Int id; Value.Set (random_set ()) ]))
