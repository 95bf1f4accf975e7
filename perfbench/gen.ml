(* The inputs of the three workloads, made from the seed before any
   timing starts.  Every stream is one "round" that leaves the store as
   it found it, so a run repeats whole rounds of the same operations and
   every round sees the same replies. *)

let absent = -1

(* {1 Point streams: kv-point and snapshot-pinned} *)

(* One point op packed in an int: kind in bits 0-1, key in bits 2-25,
   the PUT value (or the RANGE width) from bit 26 up. *)
let k_get = 0

let k_put = 1

let k_del = 2

let k_range = 3

let pack kind key arg = kind lor (key lsl 2) lor (arg lsl 26)

let kind op = op land 3

let key op = (op lsr 2) land 0xFF_FFFF

let arg op = op lsr 26

type point = {
  universe : int;  (** keys are [0, universe) *)
  keys : int;  (** keys present when a round starts *)
  half : int;  (** ops in each half of a round *)
  write_share : float;  (** PUT and DEL together *)
  range_share : float;
  range_width : int;  (** keys spanned by one RANGE *)
  theta : float;  (** Zipf skew of the keys; 0 is uniform *)
}

let kv_point =
  {
    universe = 200_000;
    keys = 100_000;
    half = 65_536;
    write_share = 0.10;
    range_share = 0.;
    range_width = 16;
    theta = 0.99;
  }

let snapshot_pinned =
  {
    universe = 200_000;
    keys = 100_000;
    half = 131_072;
    write_share = 0.95;
    range_share = 0.05;
    range_width = 16;
    theta = 0.;
  }

(* The state a round starts from: [shadow.(k)] is the value of key [k]
   or [absent]; [order] is the order the keys are put in at set-up. *)
type prefill = { shadow : int array; order : int array }

let point_prefill p rng =
  let perm = Array.init p.universe Fun.id in
  Rng.shuffle rng perm;
  let order = Array.sub perm 0 p.keys in
  let shadow = Array.make p.universe absent in
  Array.iter (fun k -> shadow.(k) <- Rng.below rng (1 lsl 30)) order;
  { shadow; order }

(* The first half of a round draws reads and writes; a write is a PUT
   of an absent key or a DEL of a present one, so every write changes
   the store.  The second half repeats the first half's read/write
   pattern with fresh reads, and undoes the first half's writes in
   reverse order: PUT and DEL are each exactly half of the writes, and
   the round ends in the state it began with. *)
let point_round p rng pre =
  let pop = Array.init p.universe Fun.id in
  Rng.shuffle rng pop;
  let z = Rng.zipf ~theta:p.theta p.universe in
  let draw () = pop.(Rng.sample z rng) in
  let read () =
    if Rng.float rng *. (1. -. p.write_share) < p.range_share then
      pack k_range (draw ()) p.range_width
    else pack k_get (draw ()) 0
  in
  let is_write op = kind op = k_put || kind op = k_del in
  let sim = Array.copy pre.shadow in
  let h = p.half in
  let ops = Array.make (2 * h) 0 in
  let undo_k = Array.make h 0 and undo_v = Array.make h 0 and top = ref 0 in
  for i = 0 to h - 1 do
    ops.(i) <-
      (if Rng.float rng < p.write_share then begin
         let k = draw () in
         undo_k.(!top) <- k;
         undo_v.(!top) <- sim.(k);
         incr top;
         if sim.(k) = absent then begin
           let v = Rng.below rng (1 lsl 30) in
           sim.(k) <- v;
           pack k_put k v
         end
         else begin
           sim.(k) <- absent;
           pack k_del k 0
         end
       end
       else read ())
  done;
  for i = 0 to h - 1 do
    ops.(h + i) <-
      (if is_write ops.(i) then begin
         decr top;
         let k = undo_k.(!top) and v = undo_v.(!top) in
         sim.(k) <- v;
         if v = absent then pack k_del k 0 else pack k_put k v
       end
       else read ())
  done;
  assert (sim = pre.shadow);
  ops

(* {1 txn-bank} *)

type bank = {
  groups : int;
  accounts : int;  (** per group, on keys [g * stride, g * stride + accounts) *)
  stride : int;  (** the rest of a group's keys are filler *)
  balance : int;  (** initial balance of every account *)
  transfers : int;  (** per half round *)
  max_amount : int;
  audits : int;  (** per auditor round *)
}

let txn_bank =
  {
    groups = 256;
    accounts = 16;
    stride = 400;
    balance = 1000;
    transfers = 8192;
    max_amount = 100;
    audits = 1024;
  }

let account b g i = (g * b.stride) + i

let group_sum b = b.accounts * b.balance

let bank_prefill b rng =
  let n = b.groups * b.stride in
  let shadow =
    Array.init n (fun k ->
        if k mod b.stride < b.accounts then b.balance
        else Rng.below rng (1 lsl 30))
  in
  let order = Array.init n Fun.id in
  Rng.shuffle rng order;
  { shadow; order }

(* A transfer moves [amount] from account [src] to account [dst] of
   group [g]. *)
let pack_xfer g src dst amount =
  g lor (src lsl 16) lor (dst lsl 20) lor (amount lsl 24)

let xfer_group t = t land 0xFFFF

let xfer_src t = (t lsr 16) land 0xF

let xfer_dst t = (t lsr 20) land 0xF

let xfer_amount t = t lsr 24

(* Random transfers, then the same transfers reversed: balances end
   where they began. *)
let bank_round b rng =
  let h = b.transfers in
  let ops = Array.make (2 * h) 0 in
  for i = 0 to h - 1 do
    let g = Rng.below rng b.groups and src = Rng.below rng b.accounts in
    let dst = (src + 1 + Rng.below rng (b.accounts - 1)) mod b.accounts in
    let x = 1 + Rng.below rng b.max_amount in
    ops.(i) <- pack_xfer g src dst x;
    ops.((2 * h) - 1 - i) <- pack_xfer g dst src x
  done;
  ops

(* An audit reads one whole group: a RANGE three times in four, an
   MGET of its accounts otherwise. *)
let audit_round b rng =
  Array.init b.audits (fun i ->
      Rng.below rng b.groups lor (if i land 3 = 3 then 1 lsl 16 else 0))

let audit_group a = a land 0xFFFF

let audit_is_mget a = a lsr 16 = 1
