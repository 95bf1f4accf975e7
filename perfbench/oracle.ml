(* Independent oracles.  Every reply is read back from the wire bytes
   the program rendered and checked against the benchmark's own model
   of the store: a shadow array with insert-only PUT semantics for the
   point workloads, the writer's shadow balances and a constant group
   sum for txn-bank.  The scanner is the benchmark's, not the program's
   reply reader, and allocates nothing. *)

exception Bad

let absent = Gen.absent

(* One cursor per domain, so that checking a reply allocates nothing. *)
type cur = { mutable buf : Buffer.t; mutable pos : int }

let cursors = Domain.DLS.new_key (fun () -> { buf = Buffer.create 1; pos = 0 })

let cursor buf =
  let c = Domain.DLS.get cursors in
  c.buf <- buf;
  c.pos <- 0;
  c

let byte c =
  if c.pos >= Buffer.length c.buf then raise_notrace Bad;
  let ch = Buffer.nth c.buf c.pos in
  c.pos <- c.pos + 1;
  ch

let lit c s =
  for i = 0 to String.length s - 1 do
    if byte c <> s.[i] then raise_notrace Bad
  done

(* An optionally negative decimal ended by CRLF. *)
let int_line c =
  let neg = Buffer.length c.buf > c.pos && Buffer.nth c.buf c.pos = '-' in
  if neg then c.pos <- c.pos + 1;
  let rec go acc digits =
    match byte c with
    | '0' .. '9' as d -> go ((acc * 10) + Char.code d - 48) (digits + 1)
    | '\r' when digits > 0 -> if byte c <> '\n' then raise_notrace Bad else acc
    | _ -> raise_notrace Bad
  in
  let v = go 0 0 in
  if neg then -v else v

let int_reply c =
  if byte c <> ':' then raise_notrace Bad;
  int_line c

let expect_int c v = if int_reply c <> v then raise_notrace Bad

let array_header c n = if byte c <> '*' || int_line c <> n then raise_notrace Bad

let value c v = if v = absent then lit c "$-1\r\n" else expect_int c v

(* The reply must end where the checked part ends. *)
let finish c = c.pos = Buffer.length c.buf

(* {1 Single replies} *)

let get_ok buf v =
  let c = cursor buf in
  match value c v with () -> finish c | exception Bad -> false

let put_ok buf ~present =
  let c = cursor buf in
  match lit c (if present then "+EXISTS\r\n" else "+OK\r\n") with
  | () -> finish c
  | exception Bad -> false

let del_ok buf ~present =
  let c = cursor buf in
  match expect_int c (if present then 1 else 0) with
  | () -> finish c
  | exception Bad -> false

(* RANGE lo hi against a shadow array: the present keys, ascending. *)
let range_ok buf shadow lo hi =
  let hi = min hi (Array.length shadow - 1) in
  let n = ref 0 in
  for k = lo to hi do
    if shadow.(k) <> absent then incr n
  done;
  let c = cursor buf in
  match
    array_header c (2 * !n);
    for k = lo to hi do
      if shadow.(k) <> absent then begin
        expect_int c k;
        expect_int c shadow.(k)
      end
    done
  with
  | () -> finish c
  | exception Bad -> false

(* One point op of kv-point or snapshot-pinned: check its reply and
   apply its effect to the shadow. *)
let point_step shadow op buf =
  let k = Gen.key op in
  match Gen.kind op with
  | 0 -> get_ok buf shadow.(k)
  | 1 ->
      let present = shadow.(k) <> absent in
      if not present then shadow.(k) <- Gen.arg op;
      put_ok buf ~present
  | 2 ->
      let present = shadow.(k) <> absent in
      shadow.(k) <- absent;
      del_ok buf ~present
  | _ -> range_ok buf shadow k (k + Gen.arg op - 1)

(* MGET and RANGE replies against values the model worked out. *)
let vals_ok buf vals =
  let c = cursor buf in
  match
    array_header c (Array.length vals);
    for i = 0 to Array.length vals - 1 do
      value c (Option.value vals.(i) ~default:absent)
    done
  with
  | () -> finish c
  | exception Bad -> false

let rec pairs c = function
  | [] -> ()
  | (k, v) :: rest ->
      expect_int c k;
      expect_int c v;
      pairs c rest

let pairs_ok buf ps =
  let c = cursor buf in
  match
    array_header c (2 * List.length ps);
    pairs c ps
  with
  | () -> finish c
  | exception Bad -> false

(* {1 txn-bank} *)

(* A group read must show every account of the group, and the group's
   balances must sum to what they summed to at set-up. *)
let group_ok (b : Gen.bank) buf g ~mget =
  let c = cursor buf and sum = ref 0 in
  match
    array_header c (if mget then b.accounts else 2 * b.accounts);
    for i = 0 to b.accounts - 1 do
      if not mget then expect_int c (Gen.account b g i);
      sum := !sum + int_reply c
    done
  with
  | () -> !sum = Gen.group_sum b && finish c
  | exception Bad -> false

(* The replies to MULTI, six queued commands and EXEC of one transfer:
   the GETs must read the writer's shadow balances, both DELs remove
   and both PUTs insert.  Returns the versionstamp, which must exceed
   the writer's previous one, or 0 when anything disagrees. *)
let xfer_ok buf ~ba ~bb ~last_vs =
  let c = cursor buf in
  match
    lit c "+OK\r\n";
    for _ = 1 to 6 do
      lit c "+QUEUED\r\n"
    done;
    array_header c 7;
    let vs = int_reply c in
    expect_int c ba;
    expect_int c bb;
    expect_int c 1;
    lit c "+OK\r\n";
    expect_int c 1;
    lit c "+OK\r\n";
    vs
  with
  | vs -> if vs > last_vs && finish c then vs else 0
  | exception Bad -> 0

(* {1 Whole-store checks} *)

(* [pairs] (any order) must hold exactly the present keys of [shadow]
   with their values. *)
let state_ok shadow pairs =
  let present = Array.fold_left (fun n v -> if v <> absent then n + 1 else n) 0 shadow in
  let sorted = List.sort compare pairs in
  let rec go prev n = function
    | [] -> n = present
    | (k, v) :: rest ->
        k > prev && k >= 0 && k < Array.length shadow && shadow.(k) = v
        && go k (n + 1) rest
  in
  go (-1) 0 sorted

(* [fold f] folds [f] over a whole store from 0; it must visit exactly
   the present keys of [shadow], each once and with its value.  [seen]
   is scratch space of one byte per key. *)
let fold_ok seen shadow fold =
  Bytes.fill seen 0 (Bytes.length seen) '\000';
  let bad = ref false in
  let n =
    fold (fun n k v ->
        if k < 0 || k >= Array.length shadow || shadow.(k) <> v || Bytes.get seen k <> '\000'
        then begin
          bad := true;
          n
        end
        else begin
          Bytes.set seen k '\001';
          n + 1
        end)
  in
  let present = Array.fold_left (fun n v -> if v <> absent then n + 1 else n) 0 shadow in
  (not !bad) && n = present

let census_ok (c : Verlib.Chainscan.census) = c.c_violation_count = 0

let structure_ok check = match check () with () -> true | exception Failure _ -> false

(* {1 Negative self-tests}

   Each oracle is fed a wrong reply or state and must report it; a
   right one must pass.  A checker that accepts everything fails here. *)
let selftest () =
  let buf s =
    let b = Buffer.create 64 in
    Buffer.add_string b s;
    b
  in
  let bank = Gen.txn_bank in
  let shadow = [| 7; absent; 9 |] in
  let good_range = buf "*4\r\n:0\r\n:7\r\n:2\r\n:9\r\n" in
  let good_xfer =
    "+OK\r\n" ^ String.concat "" (List.init 6 (fun _ -> "+QUEUED\r\n"))
    ^ "*7\r\n:12\r\n:900\r\n:1100\r\n:1\r\n+OK\r\n:1\r\n+OK\r\n"
  in
  let group ~mget ~bump =
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "*%d\r\n" (if mget then bank.accounts else 2 * bank.accounts));
    for i = 0 to bank.accounts - 1 do
      if not mget then Buffer.add_string b (Printf.sprintf ":%d\r\n" (Gen.account bank 3 i));
      Buffer.add_string b
        (Printf.sprintf ":%d\r\n" (bank.balance + if i = 0 then bump else 0))
    done;
    b
  in
  let fold pairs f = List.fold_left (fun n (k, v) -> f n k v) 0 pairs in
  let census violations =
    {
      (Verlib.Chainscan.census_of_targets []) with
      Verlib.Chainscan.c_violation_count = violations;
    }
  in
  [
    ("get right value", get_ok (buf ":7\r\n") 7);
    ("get wrong value", not (get_ok (buf ":8\r\n") 7));
    ("get nil for present", not (get_ok (buf "$-1\r\n") 7));
    ("get value for absent", not (get_ok (buf ":7\r\n") absent));
    ("get error reply", not (get_ok (buf "-ERR internal\r\n") 7));
    ("get trailing bytes", not (get_ok (buf ":7\r\n:7\r\n") 7));
    ("put inserted", put_ok (buf "+OK\r\n") ~present:false);
    ("put exists on absent", not (put_ok (buf "+EXISTS\r\n") ~present:false));
    ("put ok on present", not (put_ok (buf "+OK\r\n") ~present:true));
    ("del missed on present", not (del_ok (buf ":0\r\n") ~present:true));
    ("del removed on absent", not (del_ok (buf ":1\r\n") ~present:false));
    ("range right", range_ok good_range shadow 0 2);
    ("range missing key", not (range_ok (buf "*2\r\n:0\r\n:7\r\n") shadow 0 2));
    ("range wrong value", not (range_ok (buf "*4\r\n:0\r\n:7\r\n:2\r\n:8\r\n") shadow 0 2));
    ("range absent key", not (range_ok (buf "*6\r\n:0\r\n:7\r\n:1\r\n:5\r\n:2\r\n:9\r\n") shadow 0 2));
    ("vals right", vals_ok (buf "*2\r\n:7\r\n$-1\r\n") [| Some 7; None |]);
    ("vals nil for present", not (vals_ok (buf "*2\r\n$-1\r\n$-1\r\n") [| Some 7; None |]));
    ("vals short", not (vals_ok (buf "*1\r\n:7\r\n") [| Some 7; None |]));
    ("pairs right", pairs_ok good_range [ (0, 7); (2, 9) ]);
    ("pairs wrong key", not (pairs_ok good_range [ (0, 7); (1, 9) ]));
    ("group range right", group_ok bank (group ~mget:false ~bump:0) 3 ~mget:false);
    ("group mget right", group_ok bank (group ~mget:true ~bump:0) 3 ~mget:true);
    ("group range sum off", not (group_ok bank (group ~mget:false ~bump:1) 3 ~mget:false));
    ("group mget sum off", not (group_ok bank (group ~mget:true ~bump:(-1)) 3 ~mget:true));
    ("group other group", not (group_ok bank (group ~mget:false ~bump:0) 4 ~mget:false));
    ("group mget nil", not (group_ok bank (buf "*16\r\n$-1\r\n") 3 ~mget:true));
    ("xfer right", xfer_ok (buf good_xfer) ~ba:900 ~bb:1100 ~last_vs:11 = 12);
    ("xfer stale balance", xfer_ok (buf good_xfer) ~ba:901 ~bb:1100 ~last_vs:11 = 0);
    ("xfer stamp not increasing", xfer_ok (buf good_xfer) ~ba:900 ~bb:1100 ~last_vs:12 = 0);
    ( "xfer abort",
      xfer_ok
        (buf ("+OK\r\n" ^ String.concat "" (List.init 6 (fun _ -> "+QUEUED\r\n")) ^ "-ABORT 8\r\n"))
        ~ba:900 ~bb:1100 ~last_vs:0
      = 0 );
    ("state right", state_ok shadow [ (2, 9); (0, 7) ]);
    ("state extra key", not (state_ok shadow [ (0, 7); (1, 1); (2, 9) ]));
    ("state missing key", not (state_ok shadow [ (0, 7) ]));
    ("state wrong value", not (state_ok shadow [ (0, 7); (2, 8) ]));
    ("state duplicate key", not (state_ok shadow [ (0, 7); (0, 7); (2, 9) ]));
    ("fold right", fold_ok (Bytes.create 3) shadow (fold [ (2, 9); (0, 7) ]));
    ("fold wrong value", not (fold_ok (Bytes.create 3) shadow (fold [ (0, 7); (2, 8) ])));
    ("fold missing key", not (fold_ok (Bytes.create 3) shadow (fold [ (0, 7) ])));
    ("fold duplicate key", not (fold_ok (Bytes.create 3) shadow (fold [ (0, 7); (0, 7); (2, 9) ])));
    ("fold extra key", not (fold_ok (Bytes.create 3) shadow (fold [ (0, 7); (1, 4); (2, 9) ])));
    ("census clean", census_ok (census 0));
    ("census violation", not (census_ok (census 1)));
    ("structure check raises", not (structure_ok (fun () -> failwith "bad node")));
  ]
