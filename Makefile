# Development and CI entry points. CI jobs invoke exactly these targets, so
# local runs and the matrix exercise identical commands.
#
# Static analysis: `make lint` builds tools/analyzers (a separate module,
# keeping the main go.mod dependency-free) into bin/hyperprov-vet and runs
# it through `go vet -vettool` — eight repo-specific analyzers enforcing the
# invariants past PRs established (atomic durable writes, a client library
# that imports no network package, structured error codes, lock/blocking
# discipline, constant metric names, no text encodings on a wire, one
# package that opens sockets, deterministic commit-path time). See README
# "Static analysis & enforced invariants" for the table and the suppression
# directives. `make analyze` also greps the record path (internal/core, the
# provenance chaincode) and the state database's document reads (statedb and
# richquery, query parsing and the scanner aside) for reflective JSON decodes,
# greps statedb for a `ParseQuery(` (a reader answers the parsed query it is
# handed), greps internal/, cmd/ and examples/ for a `.BlocksFrom(` chain-tail slice,
# for a `.VerifyData(` re-check outside the three places a block's data hash
# is checked and for an off-chain `VerifyChecksum(` outside the two places a
# payload is re-checked, greps for a shim.Config marked Query outside
# internal/peer and for a GetStateView( (a read that aliases the store) outside
# the provenance chaincode and the shim, checks that internal/recovery
# imports no richquery (a checkpoint holds no index), and checks
# internal/core's whole import cone against the network-side packages.
#
# Profiles: `make profile-post`, `profile-store`, `profile-lineage` and
# `profile-catchup` write CPU and allocation profiles of the write path, the
# payload path, the provenance read path and block replay into out/, each in
# two runs of one test binary. A profile locates cost; whether a change is a
# gain is decided by benchmark/ (BENCHMARK.json) alone.
#
# Demos: `make demos` runs every program tier-1 only compiles — the five
# examples/ and hyperprov's three subcommands — and fails on a non-zero exit.

GO ?= go

# Total-coverage floor enforced by `make cover` (ratcheted, not lowered:
# raise it when coverage grows). Current total at the time of setting: 89.0%.
COVER_FLOOR ?= 87.0

# Per-target budget for `make fuzz` (PR smoke); nightly CI runs longer.
FUZZTIME ?= 30s

# The domain-specific vet tool and the module it lives in.
VETTOOL := tools/analyzers/bin/hyperprov-vet

.PHONY: all fmt fmt-check vet vettool analyze lint build test race bench \
	bench-modeled benchmark-check profile-post profile-store profile-lineage \
	profile-catchup cover \
	crash-test cross smoke demos fuzz test-analyzers

all: build test

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "unformatted files:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Build the hyperprov-vet multichecker from its own module.
vettool:
	cd tools/analyzers && $(GO) build -o bin/hyperprov-vet ./cmd/hyperprov-vet

# The record path: the client library and the chaincode, tests aside.
CORE_GO := $(filter-out %_test.go,$(wildcard internal/core/*.go))
PROVENANCE_GO := $(filter-out %_test.go,$(wildcard internal/chaincode/provenance/*.go))
# The state database's reads of stored documents, tests aside: everything in
# statedb and richquery but query parsing (query.go, selector.go) and the
# scanner (scan.go), the only files there that call encoding/json's decoder.
STATE_GO := $(filter-out %_test.go internal/richquery/query.go internal/richquery/selector.go internal/richquery/scan.go, \
	$(wildcard internal/statedb/*.go internal/richquery/*.go))
# The state database, tests aside: it answers parsed queries only.
STATEDB_GO := $(filter-out %_test.go,$(wildcard internal/statedb/*.go))

# The packages on the far side of core.Gateway: the clientseam analyzer bans
# them as direct imports of internal/core, `go list -deps` below as indirect
# ones. endorser is not one of them: it holds the client's transaction
# builder, endorser.Transact.
NETWORK_SIDE := fabric peer orderer gossip transport committer recovery trace device

# Run the eight repo-specific analyzers over the whole tree via `go vet`,
# then keep reflection off the record path: records are decoded by
# provenance.Decode* and read by readFields, on richquery's scanner, so
# internal/core calls no reflective JSON decoder and the chaincode only for
# its request arguments (setArgs, listArgs) — a new read function cannot
# quietly bring encoding/json's decode back. Likewise the state database
# reads a stored document one way, with richquery.Extract, for index
# maintenance, index rebuilds and rich-query re-checks alike: outside query
# parsing and the scanner, statedb and richquery call no reflective decoder.
# Parse a rich query once per use: the shim parses it per simulation and
# rwset per re-validated query read, and every state reader is handed the
# *richquery.Query, so statedb calls no ParseQuery. Keep chain tails out of
# slices: the chain is read by number (blockstore.Each, Peer.Blocks,
# Client.Blocks), and the two BlocksFrom collectors are left only for
# benchmark/. Check a
# block's data hash once, where it enters the process: at the committer's
# admission, in the block-file loader, and in the VerifyChain audit — an
# append or a block the process built itself is not re-hashed. Check a
# payload end to end once, in core.GetData against the on-chain checksum;
# the only other offchain.VerifyChecksum call is MemStore.Open's, for an
# object Corrupt replaced (DirStore.Open hashes its file inline, and
# codec.VerifyChecksum, a CRC-32C trailer, is not matched). Keep the
# gateway from signing: the client signs a transaction through
# endorser.Transact, and fabric/gateway.go only endorses and orders (its
# g.exec.Sign() charges are the client machine's modeled cost, not a
# signature). Keep a query stub to Peer.Query: a stub marked Query records
# no reads, so an endorsement built on one would carry no read set for MVCC
# to check; only internal/peer constructs one. Keep the aliasing read to
# the provenance chaincode: GetStateView returns the stored bytes, which the
# lineage and descendant walks splice and never write, so outside the
# chaincode and the shim every caller reads its own copy with GetState.
# Keep indexes out of checkpoints: a checkpoint is the world state, and a
# peer builds its rich-query indexes from the documents in it, so non-test
# internal/recovery imports no richquery. Last, keep the client library's import cone closed: an analyzer sees
# direct imports only, so ask the go command for the transitive set.
analyze: vettool
	$(GO) vet -vettool=$(CURDIR)/$(VETTOOL) ./...
	@bad=$$( { grep -nE 'json\.(Unmarshal|NewDecoder)\(' $(CORE_GO); \
		grep -nE 'json\.(Unmarshal|NewDecoder)\(' $(PROVENANCE_GO) | grep -vF 'json.Unmarshal(args[0], &in)'; } ); \
	if [ -n "$$bad" ]; then \
		echo "reflective JSON decode on the record path (use provenance.Decode* / readFields):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE 'json\.(Unmarshal|NewDecoder)\(' $(STATE_GO)); \
	if [ -n "$$bad" ]; then \
		echo "a stored document decoded into a tree (read its fields with richquery.Extract):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nF 'ParseQuery(' $(STATEDB_GO)); \
	if [ -n "$$bad" ]; then \
		echo "the state database re-parses a query (ExecuteQuery takes the caller's *richquery.Query):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnF '.BlocksFrom(' --include='*.go' --exclude='*_test.go' internal cmd examples); \
	if [ -n "$$bad" ]; then \
		echo "a chain tail read into a slice (stream it with Blocks / blockstore.Each):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnF '.VerifyData(' --include='*.go' --exclude='*_test.go' internal cmd examples | \
		grep -vE '^internal/(committer/committer|blockstore/file|blockstore/store)\.go:'); \
	if [ -n "$$bad" ]; then \
		echo "a block's data hash re-checked (admission, the file loader and VerifyChain check it):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE '(^|[^.[:alnum:]_]|offchain\.)VerifyChecksum\(' --include='*.go' --exclude='*_test.go' internal cmd examples | \
		grep -vF ':func VerifyChecksum(' | grep -vE '^internal/(core/client|offchain/offchain)\.go:'); \
	if [ -n "$$bad" ]; then \
		echo "an off-chain payload re-hashed (core.GetData checks it end to end, MemStore.Open a corrupted object):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE '\b(Transact|SignDigest|SealSigned)\b|\.Sign\([^)]' internal/fabric/gateway.go | \
		grep -vE '^[0-9]+:[[:space:]]*//'); \
	if [ -n "$$bad" ]; then \
		echo "the gateway signs (the client signs through endorser.Transact; the gateway endorses and orders):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rlE 'shim\.(Config|NewStub)\b' --include='*.go' --exclude='*_test.go' --exclude-dir=out internal cmd examples benchmark | \
		grep -v '^internal/peer/' | xargs -r grep -HnE '\bQuery[[:space:]]*:|\.Query[[:space:]]*=[^=]'); \
	if [ -n "$$bad" ]; then \
		echo "a shim stub marked Query outside Peer.Query (an endorsement's stub must record its reads):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnF 'GetStateView(' --include='*.go' --exclude='*_test.go' --exclude-dir=out internal cmd examples benchmark | \
		grep -vE '^internal/(chaincode/provenance|shim)/'); \
	if [ -n "$$bad" ]; then \
		echo "a state read that aliases the store outside the provenance chaincode (read a copy with GetState):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/recovery | grep -x '.*/internal/richquery'); \
	if [ -n "$$bad" ]; then \
		echo "internal/recovery imports richquery (a checkpoint holds state only; indexes are built from its documents):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$($(GO) list -deps ./internal/core | grep -E '/internal/($(subst $(eval) ,|,$(NETWORK_SIDE)))$$'); \
	if [ -n "$$bad" ]; then \
		echo "internal/core depends on the network side of core.Gateway:"; echo "$$bad"; exit 1; \
	fi

# Unit-test the analyzers themselves (golden fixtures + the not-muted
# self-test).
test-analyzers:
	cd tools/analyzers && $(GO) test ./...

# staticcheck and govulncheck are optional locally (the container may lack
# network to install them); CI installs them and fails the lint job on
# findings.
lint: vet analyze
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipped (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...
	$(MAKE) test-analyzers

race:
	$(GO) test -race -shuffle=on ./...

# Native fuzz targets, $(FUZZTIME) each: the frame reader under hostile
# bytes (header flag bits included), the frame bodies of the off-chain and
# transport protocols (every request and reply decoder: structured errors,
# decode → encode → decode stable), the object server's and a served peer's
# op tables under an arbitrary request stream (no panic, the handler
# returns; every stored object hashes to its key, the served ledger still
# verifies), the checkpoint codec under damaged
# media, the block/envelope codec under the bytes gossip frames and ledger
# files deliver, the rwset codec under the bytes envelopes carry into
# validation, identity resolution under arbitrary serialized identities
# (structured errors, same verdict twice), and the streamed signing digests
# against the preimages they stand for, and the chaincode's read functions
# after a fuzzed set (payloads byte-equal to the decode/re-encode reference
# renderer, and decodable by the client), the JSON scanner against
# json.Valid and Extract against DecodeDoc + Lookup (a decoded-tree reference
# kept in richquery's tests), the rich-query index
# entry encoding against the (value, document key) order it stands for, and
# the record, history and page decoders against json.Unmarshal into the same
# types (same verdict, DeepEqual values). Each run first executes the committed seed
# corpus.
fuzz:
	$(GO) test -fuzz=FuzzReadFrameExt -fuzztime=$(FUZZTIME) -run '^$$' ./internal/network/
	$(GO) test -fuzz=FuzzOffchainBody -fuzztime=$(FUZZTIME) -run '^$$' ./internal/offchain/
	$(GO) test -fuzz=FuzzOffchainServe -fuzztime=$(FUZZTIME) -run '^$$' ./internal/offchain/
	$(GO) test -fuzz=FuzzTransportBody -fuzztime=$(FUZZTIME) -run '^$$' ./internal/transport/
	$(GO) test -fuzz=FuzzTransportServe -fuzztime=$(FUZZTIME) -run '^$$' ./internal/transport/
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime=$(FUZZTIME) -run '^$$' ./internal/recovery/
	$(GO) test -fuzz=FuzzDecodeBlockCodec -fuzztime=$(FUZZTIME) -run '^$$' ./internal/blockstore/
	$(GO) test -fuzz=FuzzUnmarshalRWSet -fuzztime=$(FUZZTIME) -run '^$$' ./internal/rwset/
	$(GO) test -fuzz=FuzzDeserialize -fuzztime=$(FUZZTIME) -run '^$$' ./internal/identity/
	$(GO) test -fuzz=FuzzSignedDigest -fuzztime=$(FUZZTIME) -run '^$$' ./internal/endorser/
	$(GO) test -fuzz=FuzzSetThenRead -fuzztime=$(FUZZTIME) -run '^$$' ./internal/chaincode/provenance/
	$(GO) test -fuzz=FuzzScan -fuzztime=$(FUZZTIME) -run '^$$' ./internal/richquery/
	$(GO) test -fuzz=FuzzExtract -fuzztime=$(FUZZTIME) -run '^$$' ./internal/richquery/
	$(GO) test -fuzz=FuzzIndexEntryOrder -fuzztime=$(FUZZTIME) -run '^$$' ./internal/richquery/
	$(GO) test -fuzz=FuzzDecodeRecords -fuzztime=$(FUZZTIME) -run '^$$' ./internal/chaincode/provenance/
	$(GO) test -fuzz=FuzzDecodeHistory -fuzztime=$(FUZZTIME) -run '^$$' ./internal/chaincode/provenance/
	$(GO) test -fuzz=FuzzDecodePage -fuzztime=$(FUZZTIME) -run '^$$' ./internal/chaincode/provenance/

# Go benchmarks, real clock. Two pairs are read side by side, both sides
# warm: BenchmarkCommitPipelined4 vs ...Instrumented (internal/committer) is
# the observability overhead (...Blocks10 commits catchup's 10-tx blocks
# beside them), and BenchmarkRangeScan/keys=1000 vs
# keys=100000 (internal/statedb) shows a scan costs what it returns, not
# what the store holds.
bench:
	$(GO) test -bench . -benchtime=500ms -run '^$$' ./...

# The paper's figures and the ablations (internal/bench's one experiment
# table), full size: every table prints labelled with its clock and lands
# stamped in out/bench/<name>.json.
bench-modeled:
	$(GO) run ./cmd/hyperprov-bench -experiment all -out-dir out/bench

# The repository benchmark (BENCHMARK.json) is a module of its own that the
# root `go test ./...` does not descend into: vet and test it against the
# current internal/ API, then smoke-run all four workloads, untraced and
# traced, with every assertion on.
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test -short .
	bash benchmark/run.sh -check

# $(call profile,package,benchmark,iterations,name) builds internal/<package>'s
# test binary into out/<package>.test and runs the benchmark twice: for
# out/<name>.cpu.pprof with the default MemProfileRate, then for
# out/<name>.mem.pprof at one sample per 4096 bytes. Taken in one run, the
# heap profiler's stack walks were 13-15% of the CPU profile's samples and
# weighed on every allocating frame.
define profile
	mkdir -p out
	$(GO) test -c -o out/$(1).test ./internal/$(1)/
	cd internal/$(1) && $(CURDIR)/out/$(1).test -test.run '^$$' -test.bench $(2) -test.benchtime $(3) \
		-test.cpuprofile $(CURDIR)/out/$(4).cpu.pprof
	cd internal/$(1) && $(CURDIR)/out/$(1).test -test.run '^$$' -test.bench $(2) -test.benchtime $(3) \
		-test.memprofile $(CURDIR)/out/$(4).mem.pprof -test.memprofilerate 4096
endef

# CPU and allocation profiles of the per-transaction fixed cost (the shape of
# the post_e2e workload) without editing benchmark/: writes out/post.cpu.pprof,
# out/post.mem.pprof and the test binary out/fabric.test for `go tool pprof`.
# A profile says where time and bytes go; whether a change is a gain is
# decided by benchmark/ (BENCHMARK.json), never by this run's ns/op.
profile-post:
	$(call profile,fabric,BenchmarkSubmitRealClock,20000x,post)

# The same for the paper's headline operation (the shape of the store_payload
# workload: StoreData + GetData of 256 KiB over a loopback object server):
# writes out/store.cpu.pprof, out/store.mem.pprof and out/core.test. As above,
# a profile locates cost; gains are judged by benchmark/ only.
profile-store:
	$(call profile,core,BenchmarkStoreGetRealClock,3000x,store)

# And for the provenance read path (the shape of the lineage_mixed workload's
# twenty point/lineage reads and by-type rich query on a 16 x 64 DAG): writes
# out/lineage.cpu.pprof, out/lineage.mem.pprof and out/core.test. As above, a
# profile locates cost; gains are judged by benchmark/ only.
profile-lineage:
	$(call profile,core,BenchmarkLineageReadsRealClock,3000x,lineage)

# And for block replay (the shape of the catchup workload: cold joiners take
# a chain of ten-transaction blocks over a loopback transport connection,
# four blocks per iteration): writes out/catchup.cpu.pprof,
# out/catchup.mem.pprof and out/fabric.test. As above, a profile locates
# cost; gains are judged by benchmark/ only.
profile-catchup:
	$(call profile,fabric,BenchmarkCatchupRealClock,1000x,catchup)

# Crash-recovery torture tests, repeated: the randomized kill points cover
# different interleavings on every -count iteration. The checkpoint codec,
# LoadLatest and manager tests ride along.
crash-test:
	$(GO) test -count=3 -run 'Torture|Crash|Recover|FileStore|Checkpoint|LoadLatest|Manager' \
		./internal/recovery/ ./internal/peer/ ./internal/blockstore/

# Multi-process deployment smoke test: one -peer-serve process, two -join
# processes, blocks disseminating over real TCP; asserts identical heights
# and state fingerprints across all three.
smoke:
	./scripts/smoke_net.sh

# The programs `go build ./...` compiles and no test executes: each example
# and each hyperprov subcommand assembles its own in-process network, so a
# re-plumbed fabric/core API that still compiles but no longer runs shows
# here (~15s; output is the walkthroughs' own).
demos:
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; $(GO) run ./$$d; \
	done; \
	for sub in "" query recover; do \
		echo "== hyperprov $$sub"; $(GO) run ./cmd/hyperprov $$sub; \
	done

# Cross-compilation for the paper's ARM edge boards; vet runs per arch so
# size/alignment assumptions surface without qemu. The packages that do
# 64-bit word arithmetic on JSON (the scanner and the record decoders) also
# run their tests on a 32-bit target: 386 executes natively on amd64.
cross:
	GOOS=linux GOARCH=arm GOARM=7 $(GO) build ./...
	GOOS=linux GOARCH=arm GOARM=7 $(GO) vet ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/richquery/ ./internal/chaincode/provenance/

# Total coverage with an enforced floor; writes cover.out and cover.html.
cover:
	$(GO) test -shuffle=on -coverprofile=cover.out -coverpkg=./internal/... ./...
	$(GO) tool cover -html=cover.out -o cover.html
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% fell below the floor $(COVER_FLOOR)%"; exit 1; }
