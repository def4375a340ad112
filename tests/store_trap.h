// StoreTrap: a test PersistObserver that runs a callback once, from inside
// the first store to one 8-byte NVM word. An atomic CAS reports its store
// after it lands, so a trap on a lease word runs the callback in the window
// right after a claimant's CAS — where a racing claimant would look.
//
// Every event is forwarded to the observer the trap replaces (the auditor
// under ZOFS_AUDIT=1), which is reinstated on destruction.

#ifndef TESTS_STORE_TRAP_H_
#define TESTS_STORE_TRAP_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "src/nvm/nvm.h"

class StoreTrap : public nvm::PersistObserver {
 public:
  StoreTrap(nvm::NvmDevice* dev, uint64_t word_off, std::function<void()> fire)
      : dev_(dev), word_off_(word_off), fire_(std::move(fire)), prev_(dev->persist_observer()) {
    dev_->SetPersistObserver(this);
  }
  ~StoreTrap() override { dev_->SetPersistObserver(prev_); }
  StoreTrap(const StoreTrap&) = delete;
  StoreTrap& operator=(const StoreTrap&) = delete;

  bool fired() const { return fired_; }

  void OnStore(const nvm::NvmDevice* dev, uint64_t off, size_t len, bool nontemporal) override {
    if (prev_ != nullptr) {
      prev_->OnStore(dev, off, len, nontemporal);
    }
    if (!fired_ && off == word_off_) {
      fired_ = true;
      fire_();
    }
  }
  void OnClwb(const nvm::NvmDevice* dev, uint64_t off, size_t len) override {
    if (prev_ != nullptr) {
      prev_->OnClwb(dev, off, len);
    }
  }
  void OnSfence(const nvm::NvmDevice* dev) override {
    if (prev_ != nullptr) {
      prev_->OnSfence(dev);
    }
  }
  void OnPersistEpoch(const nvm::NvmDevice* dev) override {
    if (prev_ != nullptr) {
      prev_->OnPersistEpoch(dev);
    }
  }
  void OnDeviceGone(const nvm::NvmDevice* dev) override {
    if (prev_ != nullptr) {
      prev_->OnDeviceGone(dev);
    }
  }

 private:
  nvm::NvmDevice* dev_;
  uint64_t word_off_;
  std::function<void()> fire_;
  nvm::PersistObserver* prev_;
  bool fired_ = false;
};

#endif  // TESTS_STORE_TRAP_H_
