// Package h2cloud maintains whole user filesystems — file content and
// directory hierarchy alike — inside a single flat object storage cloud,
// reproducing "H2Cloud: Maintaining the Whole Filesystem in an Object
// Storage Cloud" (ICPP 2018).
//
// The core idea is the Hierarchical Hash (H2) data structure: every
// directory is a namespace with a NameRing object listing its direct
// children, and directories, NameRings and files are all ordinary objects
// on one consistent-hashing ring. Directory operations become O(1)
// NameRing updates; no separate index cloud or database is needed.
//
// Quick start:
//
//	cloud := h2cloud.NewSwiftLikeCluster()
//	mw, _ := h2cloud.NewMiddleware(h2cloud.Config{Store: cloud, Node: 1})
//	_ = mw.CreateAccount(ctx, "alice")
//	fs := mw.FS("alice")
//	_ = fs.Mkdir(ctx, "/photos")
//	_ = fs.WriteFile(ctx, "/photos/cat.jpg", data)
//	entries, _ := fs.List(ctx, "/photos", true)
//
// The package root re-exports the stable surface; implementation lives
// under internal/ (see DESIGN.md for the system inventory and the
// experiment index reproducing the paper's evaluation).
package h2cloud

import (
	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/gossip"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/httpapi"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// Core H2Cloud types.
type (
	// Middleware is one H2Middleware instance: the component translating
	// POSIX-like filesystem calls into flat object operations.
	Middleware = h2fs.Middleware
	// Config describes a Middleware.
	Config = h2fs.Config
	// AccountFS is one account's filesystem view; it implements
	// FileSystem.
	AccountFS = h2fs.AccountFS
)

// Filesystem contract shared by H2Cloud and the baseline systems.
type (
	// FileSystem is the POSIX-like operation set of the paper's §5.
	FileSystem = fsapi.FileSystem
	// EntryInfo describes one file or directory.
	EntryInfo = fsapi.EntryInfo
)

// Object storage cloud.
type (
	// ObjectStore is the flat PUT/GET/DELETE contract.
	ObjectStore = objstore.Store
	// ObjectInfo is stored-object metadata.
	ObjectInfo = objstore.ObjectInfo
	// Cluster is the in-process replicated object storage cloud.
	Cluster = cluster.Cluster
	// ClusterConfig configures a Cluster.
	ClusterConfig = cluster.Config
	// CostProfile prices simulated storage primitives.
	CostProfile = cluster.CostProfile
)

// Gossip transport for multi-middleware deployments.
type (
	// GossipBus is the in-process gossip transport (§3.3.2 phase 2).
	GossipBus = gossip.Bus
)

// Observability.
type (
	// MetricsRegistry collects per-op latency, robustness counters and
	// the request table: every store request a middleware makes, by
	// primitive and key kind. Every middleware reports to one (a private
	// registry when Config.Metrics is nil); passing one only chooses
	// where the counters go, for example to share a registry between
	// middlewares.
	MetricsRegistry = metrics.Registry
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// HTTP web API (the paper's Inbound API, §4.3).
type (
	// Server exposes a Middleware over HTTP.
	Server = httpapi.Server
	// Client talks to a Server; Client.FS returns a FileSystem.
	Client = httpapi.Client
	// ClientFS is one account's filesystem view over the HTTP API.
	ClientFS = httpapi.ClientFS
)

// Typed filesystem errors.
var (
	ErrNotFound    = fsapi.ErrNotFound
	ErrExists      = fsapi.ErrExists
	ErrNotDir      = fsapi.ErrNotDir
	ErrIsDir       = fsapi.ErrIsDir
	ErrInvalidPath = fsapi.ErrInvalidPath
)

// NewMiddleware builds an H2Middleware over an object store.
func NewMiddleware(cfg Config) (*Middleware, error) { return h2fs.New(cfg) }

// NewCluster builds an in-process object storage cloud.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NewSwiftLikeCluster builds the paper-calibrated default cloud: 8 nodes
// in 4 zones, 3 replicas per object, Swift-like service times.
func NewSwiftLikeCluster() *Cluster { return cluster.NewSwiftLike() }

// SwiftProfile returns the paper-calibrated cost profile.
func SwiftProfile() CostProfile { return cluster.SwiftProfile() }

// ZeroProfile returns a cost profile that charges no virtual time (for
// wall-clock benchmarking).
func ZeroProfile() CostProfile { return cluster.ZeroProfile() }

// NewGossipBus builds an in-process gossip transport connecting several
// middlewares.
func NewGossipBus() *GossipBus { return gossip.NewBus() }

// NewServer exposes a middleware over HTTP.
func NewServer(mw *Middleware) *Server { return httpapi.NewServer(mw) }

// NewClient connects to an H2Cloud HTTP server.
func NewClient(base string) *Client { return httpapi.NewClient(base, nil) }

// Rename renames a file or directory in place (the MOVE special case).
var Rename = fsapi.Rename
