(* The request path from outside the program: the benchmark renders
   each op as a wire line (the client's half), then the program parses
   it, executes it against the mount and renders the reply, as one
   server connection would, MULTI queueing included. *)

module P = Server.Protocol
module M = Server.Mount

(* {1 Client side: wire lines} *)

let add_int b v =
  if v < 0 then Buffer.add_char b '-';
  let v = ref (abs v) and p = ref 1 in
  while !p <= !v / 10 do
    p := !p * 10
  done;
  while !p > 0 do
    Buffer.add_char b (Char.unsafe_chr (48 + (!v / !p)));
    v := !v mod !p;
    p := !p / 10
  done

(* The line of one point op, without its terminator (as the server's
   line framing hands it over). *)
let point_line b op =
  Buffer.clear b;
  let k = Gen.key op in
  (match Gen.kind op with
  | 0 ->
      Buffer.add_string b "GET ";
      add_int b k
  | 1 ->
      Buffer.add_string b "PUT ";
      add_int b k;
      Buffer.add_char b ' ';
      add_int b (Gen.arg op)
  | 2 ->
      Buffer.add_string b "DEL ";
      add_int b k
  | _ ->
      Buffer.add_string b "RANGE ";
      add_int b k;
      Buffer.add_char b ' ';
      add_int b (k + Gen.arg op - 1));
  Buffer.contents b

let line2 b verb x y =
  Buffer.clear b;
  Buffer.add_string b verb;
  add_int b x;
  Buffer.add_char b ' ';
  add_int b y;
  Buffer.contents b

let line1 b verb x =
  Buffer.clear b;
  Buffer.add_string b verb;
  add_int b x;
  Buffer.contents b

(* The eight lines of a transfer of [x] from [a] (balance [ba]) to [c]
   (balance [bc]), written into [lines]. *)
let xfer_lines b lines ~a ~ba ~c ~bc ~x =
  lines.(0) <- "MULTI";
  lines.(1) <- line1 b "GET " a;
  lines.(2) <- line1 b "GET " c;
  lines.(3) <- line1 b "DEL " a;
  lines.(4) <- line2 b "PUT " a (ba - x);
  lines.(5) <- line1 b "DEL " c;
  lines.(6) <- line2 b "PUT " c (bc + x);
  lines.(7) <- "EXEC"

let audit_line b (bank : Gen.bank) g ~mget =
  Buffer.clear b;
  if mget then begin
    Buffer.add_string b "MGET";
    for i = 0 to bank.accounts - 1 do
      Buffer.add_char b ' ';
      add_int b (Gen.account bank g i)
    done
  end
  else begin
    Buffer.add_string b "RANGE ";
    add_int b (Gen.account bank g 0);
    Buffer.add_char b ' ';
    add_int b (Gen.account bank g (bank.accounts - 1))
  end;
  Buffer.contents b

(* {1 Server side: one connection} *)

type session = {
  mount : M.t;
  out : Buffer.t;  (** replies of the current request *)
  mutable multi : bool;
  mutable queued : P.command list;
}

let session mount = { mount; out = Buffer.create 1024; multi = false; queued = [] }

let exec s (c : P.command) =
  match c with
  | P.Multi ->
      s.multi <- true;
      s.queued <- [];
      P.Ok_
  | P.Exec token when s.multi ->
      let cs = List.rev s.queued in
      s.multi <- false;
      s.queued <- [];
      M.exec_txn s.mount ~token cs
  | c when s.multi ->
      s.queued <- c :: s.queued;
      P.Queued
  | c -> M.exec s.mount c

(* Parse, execute and render one line, appending the reply to [s.out]. *)
let handle s line =
  let r = match P.parse_command line with Ok c -> exec s c | Error m -> P.Err m in
  P.render_reply s.out r

let sp_request = Trace.name "codec.request"

let sp_parse = Trace.name "protocol.parse"

let sp_exec = Trace.name "codec.exec"

let sp_render = Trace.name "protocol.render"

(* [handle] with a span around each layer call, children of [parent]. *)
let handle_traced tr ~parent s line =
  let t0 = Rng.now_ns () in
  let parsed = P.parse_command line in
  let t1 = Rng.now_ns () in
  let r = match parsed with Ok c -> exec s c | Error m -> P.Err m in
  let t2 = Rng.now_ns () in
  P.render_reply s.out r;
  let t3 = Rng.now_ns () in
  Trace.span tr sp_parse ~parent t0 t1;
  Trace.span tr sp_exec ~parent t1 t2;
  Trace.span tr sp_render ~parent t2 t3

(* {1 The mounted store}

   A btree in the default mode, mounted as the server mounts it.  The
   wrapper keeps the handle [Mount] hides, for the structure's [check]
   at run end and the pinned fold. *)

module Tapped = struct
  include Dstruct.Btree

  let last = ref None

  let create ?mode ?lock_mode ~n_hint () =
    let h = Dstruct.Btree.create ?mode ?lock_mode ~n_hint () in
    last := Some h;
    h
end

(* Mount and prefill through [Mount.exec], in the prefill's order. *)
let build (pre : Gen.prefill) =
  let m = M.mount ~n_hint:(Array.length pre.order) (module Tapped) in
  Array.iter
    (fun k ->
      match M.exec m (P.Put (k, pre.shadow.(k))) with
      | P.Ok_ -> ()
      | r -> failwith ("prefill: " ^ P.pp_reply r))
    pre.order;
  (m, Option.get !Tapped.last)

(* {1 Pinned snapshots}

   One long-lived second domain that, on [pin], opens
   [Verlib.with_snapshot] and parks inside it; on [release] it runs a
   scan at the pinned stamp, leaves the snapshot and parks again,
   outside any snapshot, until the next [pin] or [stop]. *)

type phase = Idle | Pin | Pinned | Scan | Done | Quit

type parker = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable phase : phase;
  mutable scan : unit -> bool;
  mutable ok : bool;  (** the last scan's verdict *)
  mutable scan_ns : int;
  mutable dom : unit Domain.t option;
}

let locked p f =
  Mutex.lock p.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.mu) f

let await p phases =
  while not (List.mem p.phase phases) do
    Condition.wait p.cv p.mu
  done

let set p phase =
  p.phase <- phase;
  Condition.broadcast p.cv

let rec park p =
  let quit =
    locked p (fun () ->
        await p [ Pin; Quit ];
        p.phase = Quit)
  in
  if not quit then begin
    Verlib.with_snapshot (fun () ->
        locked p (fun () ->
            set p Pinned;
            await p [ Scan ]);
        let t0 = Rng.now_ns () in
        let ok = p.scan () in
        let t1 = Rng.now_ns () in
        locked p (fun () ->
            p.ok <- ok;
            p.scan_ns <- t1 - t0;
            set p Done));
    park p
  end

let parker () =
  let p =
    {
      mu = Mutex.create ();
      cv = Condition.create ();
      phase = Idle;
      scan = (fun () -> true);
      ok = true;
      scan_ns = 0;
      dom = None;
    }
  in
  p.dom <- Some (Domain.spawn (fun () -> park p));
  p

(* Returns once the snapshot is open; [scan] runs at [release]. *)
let pin p scan =
  locked p (fun () ->
      p.scan <- scan;
      set p Pin;
      await p [ Pinned ])

(* Runs the scan at the pinned stamp and closes the snapshot; returns
   the scan's verdict and its duration in ns. *)
let release p =
  locked p (fun () ->
      set p Scan;
      await p [ Done ];
      p.phase <- Idle;
      (p.ok, p.scan_ns))

let stop p =
  locked p (fun () -> set p Quit);
  Option.iter Domain.join p.dom
