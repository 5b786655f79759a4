GO ?= go

.PHONY: all build test check benchfig clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The one gate: build, vet, the suite under -race, fuzz and bench smokes.
check:
	sh scripts/check.sh

# The paper-figure reproduction benches.
benchfig:
	$(GO) test -bench=Fig -benchtime=1x ./...

clean:
	$(GO) clean ./...
