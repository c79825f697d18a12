module Codec = Ppj_crypto.Codec
module W = Codec.W
module R = Codec.R

type t =
  | Meta of { format : int; epoch : int }
  | Contract of { digest : string; body : string }
  | Submission of { contract : string; provider : string; body : string }
  | Nvram of { name : string; value : int }
  | Checkpoint of { contract : string; config : string; body : string }
  | Result of { contract : string; config : string; body : string }
  | Clear of { contract : string; config : string }

let kind = function
  | Meta _ -> "meta"
  | Contract _ -> "contract"
  | Submission _ -> "submission"
  | Nvram _ -> "nvram"
  | Checkpoint _ -> "checkpoint"
  | Result _ -> "result"
  | Clear _ -> "clear"

let encode r =
  Codec.encode (fun b ->
      let strs tag fields =
        W.u8 b tag;
        List.iter (W.str b) fields
      in
      match r with
      | Meta { format; epoch } ->
          W.u8 b 1;
          W.u32 b format;
          W.vint b epoch
      | Contract { digest; body } -> strs 2 [ digest; body ]
      | Submission { contract; provider; body } -> strs 3 [ contract; provider; body ]
      | Nvram { name; value } ->
          strs 4 [ name ];
          W.vint b value
      | Checkpoint { contract; config; body } -> strs 5 [ contract; config; body ]
      | Result { contract; config; body } -> strs 6 [ contract; config; body ]
      | Clear { contract; config } -> strs 7 [ contract; config ])

let decode s =
  Codec.decode s (fun r ->
      match R.u8 r with
      | 1 ->
          let format = R.u32 r in
          let epoch = R.vint r in
          Meta { format; epoch }
      | 2 ->
          let digest = R.str r in
          let body = R.str r in
          Contract { digest; body }
      | 3 ->
          let contract = R.str r in
          let provider = R.str r in
          let body = R.str r in
          Submission { contract; provider; body }
      | 4 ->
          let name = R.str r in
          let value = R.vint r in
          Nvram { name; value }
      | 5 ->
          let contract = R.str r in
          let config = R.str r in
          let body = R.str r in
          Checkpoint { contract; config; body }
      | 6 ->
          let contract = R.str r in
          let config = R.str r in
          let body = R.str r in
          Result { contract; config; body }
      | 7 ->
          let contract = R.str r in
          let config = R.str r in
          Clear { contract; config }
      | tag -> R.fail "unknown record tag %d" tag)
