module Coprocessor = Ppj_scpu.Coprocessor
module Trace = Ppj_scpu.Trace

let sentinel ~width = String.make width '\xFF'

external sget64 : string -> int -> int64 = "%caml_string_get64u"

(* Every byte of [s] from [i] on is 0xFF: a word at a time while eight
   bytes remain, then bytes.  Top-level, so a test builds no closure;
   the sort tests both operands of every compare-exchange. *)
let rec all_ff s i =
  let len = String.length s in
  if i + 8 <= len then Int64.equal (sget64 s i) (-1L) && all_ff s (i + 8)
  else i = len || (Char.equal (String.unsafe_get s i) '\xFF' && all_ff s (i + 1))

let is_sentinel s = String.length s > 0 && all_ff s 0

let with_sentinels compare a b =
  match (is_sentinel a, is_sentinel b) with
  | true, true -> 0
  | true, false -> 1
  | false, true -> -1
  | false, false -> compare a b

type network = Bitonic | Odd_even

let schedule_of network n =
  match network with Bitonic -> Bitonic.schedule n | Odd_even -> Oddeven.schedule n

let sort ?(network = Bitonic) co region ~n ~compare =
  let cmp = with_sentinels compare in
  Coprocessor.with_span co ~attrs:[ ("n", n) ] "sort" (fun () ->
      (* Holding the two elements of a compare-exchange is the "+2" of the
         paper's M + 2 memory accounting; it is transient, not ledger space. *)
      Array.iter
        (fun (p, q) ->
          let a = Coprocessor.get co region p in
          let b = Coprocessor.get co region q in
          Coprocessor.tick co 1;
          if cmp a b > 0 then begin
            Coprocessor.put co region p b;
            Coprocessor.put co region q a
          end
          else begin
            Coprocessor.put co region p a;
            Coprocessor.put co region q b
          end)
        (schedule_of network n))

let padded_size n = Bitonic.next_pow2 n

(* Only perfbench reads this process-wide counter, by difference
   (perfbench/probes.ml); every other reader takes an execution's own
   count from its coprocessor.  Looked up once, so no sort takes the
   registry's lock. *)
let pad_slots_total =
  Ppj_obs.Registry.counter Ppj_obs.Registry.default "oblivious.sort.pad_slots_total"

let sort_padded ?(network = Bitonic) co region ~n ~width ~compare =
  let p = Bitonic.next_pow2 n in
  Coprocessor.count_pad_slots co region (p - n);
  Ppj_obs.Counter.incr ~by:(p - n) pad_slots_total;
  for i = n to p - 1 do
    Coprocessor.put co region i (sentinel ~width)
  done;
  sort ~network co region ~n:p ~compare
