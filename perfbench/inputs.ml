(* Seeded inputs.  Every relation a workload feeds the program is a
   function of (--seed, stream, index) only, and every op of a workload
   has the same public shape (|A|, |B|, S), so its transfer count repeats
   exactly across ops and seeds. *)

module Rng = Ppj_crypto.Rng
module W = Ppj_relation.Workload
module Channel = Ppj_scpu.Channel

let rng ~seed stream i = Rng.create (Hashtbl.hash (seed, stream, i))

let schema = W.keyed_schema ()

let mac_key = "perfbench-mac-key"

(* Each contract has its own parties, as a shared server's would.  (With
   one recipient id for every contract, two of a run's ~10^4 hellos could
   draw the same exponent in the toy 30-bit group and the replay guard
   would refuse the second.) *)
let contract tag =
  { Channel.contract_id = "contract-" ^ tag;
    providers = [ "alice-" ^ tag; "bob-" ^ tag ];
    recipient = "carol-" ^ tag;
    predicate = "eq(key,key)";
  }

(* serve-mix: the loadtest fixture shape, 8 x 12 tuples with S = 9. *)
let fixture ~seed i =
  W.equijoin_pair (rng ~seed "fixture" i) ~na:8 ~nb:12 ~matches:9 ~max_multiplicity:3

(* shard-p2: |A| = 16, |B| = 24, S = 8.  A small op keeps its heap near
   the cache, so on a shared machine its time follows the other tenants'
   load far less than a larger op's does (see NOTES.md, "Stability"). *)
let shard_na = 16

let shard_nb = 24

let shard_s = 8

let shard_pair ~seed i =
  W.equijoin_pair (rng ~seed "shard" i) ~na:shard_na ~nb:shard_nb ~matches:shard_s
    ~max_multiplicity:2
